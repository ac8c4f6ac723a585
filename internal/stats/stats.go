// Package stats is the observability subsystem behind the paper's v2stats
// service (Figure 3): a lock-cheap metrics registry (counters, gauges,
// latency histograms with p50/p95/p99), hierarchical span tracing with a
// ring buffer of recent traces, and snapshot types that serialize to JSON
// for the /metrics endpoint. It is stdlib-only and imports nothing from
// the rest of the repository, so every layer — netsim, sharedlog, the
// column store, sqlexec, the SOE services, streaming — can instrument
// itself without dependency cycles.
//
// Conventions: metric names are snake_case with a _total suffix for
// counters and a _ms suffix for latency histograms; labels are "key=value"
// strings. Registries may carry base labels (e.g. "node=node3") stamped
// onto every metric they create, which is how per-node registries stay
// distinguishable after the StatsService merges them.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are safe
// on a nil receiver (metrics disabled), so call sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 (queue depth, applied timestamp, lag).
// Safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultHistogramCapacity is the sample-ring size of registry-created
// histograms: quantiles reflect the most recent observations.
const DefaultHistogramCapacity = 512

// DefaultBuckets are the cumulative-bucket upper bounds of registry
// histograms, in the metric's own unit (milliseconds for _ms latency
// histograms, raw values otherwise). Bucket counts are lifetime totals —
// unlike the quantile sample ring they never evict — so the Prometheus
// exposition can emit a true cumulative histogram.
var DefaultBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Histogram tracks a latency (or size) distribution along two axes:
//
//   - Lifetime state: count, sum, min, max and per-bucket counts
//     (DefaultBuckets bounds). These are exact over every observation
//     ever made and never evict.
//   - A bounded ring of the most recent `capacity` samples, from which
//     p50/p95/p99 are computed by nearest rank. Once the ring saturates
//     (after `capacity` observations) each new sample overwrites the
//     oldest — a sliding window, not a reservoir — so quantiles describe
//     the last `capacity` observations only, which is what an operator
//     tuning hotspot detection or staleness bounds actually wants.
//     TestHistogramQuantilesAtCapacity pins this eviction contract.
//
// Both the JSON snapshot and the Prometheus exposition export the same
// precomputed P50/P95/P99 fields, so the two surfaces can never disagree.
// Safe on a nil receiver.
type Histogram struct {
	mu      sync.Mutex
	ring    []float64
	next    int
	count   int64
	sum     float64
	min     float64
	max     float64
	bounds  []float64 // bucket upper bounds (ascending); nil = no buckets
	buckets []int64   // non-cumulative per-bound counts; values > last bound land only in count
}

// NewHistogram returns a histogram with the given sample-ring capacity
// (minimum 1) and DefaultBuckets bucket bounds.
func NewHistogram(capacity int) *Histogram {
	if capacity < 1 {
		capacity = 1
	}
	return &Histogram{
		ring:    make([]float64, 0, capacity),
		bounds:  DefaultBuckets,
		buckets: make([]int64, len(DefaultBuckets)),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.buckets) {
		h.buckets[i]++
	}
	if len(h.ring) < cap(h.ring) {
		h.ring = append(h.ring, v)
	} else {
		h.ring[h.next] = v
		h.next = (h.next + 1) % cap(h.ring)
	}
	h.mu.Unlock()
}

// ObserveSince records the elapsed time since start, in milliseconds —
// the idiom for latency instrumentation.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1, nearest-rank) over the
// retained samples. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	samples := append([]float64(nil), h.ring...)
	h.mu.Unlock()
	return quantile(samples, q)
}

func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	if q <= 0 {
		return samples[0]
	}
	if q >= 1 {
		return samples[len(samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return samples[idx]
}

func (h *Histogram) snapshot(name string, labels []string) HistogramSnap {
	h.mu.Lock()
	samples := append([]float64(nil), h.ring...)
	snap := HistogramSnap{
		Name: name, Labels: labels,
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
	}
	// Export buckets cumulatively (Prometheus `le` semantics); the
	// implicit +Inf bucket equals Count and is synthesized on exposition.
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i]
		snap.Buckets = append(snap.Buckets, BucketSnap{LE: b, N: cum})
	}
	h.mu.Unlock()
	snap.P50 = quantile(samples, 0.50)
	snap.P95 = quantile(samples, 0.95)
	snap.P99 = quantile(samples, 0.99)
	return snap
}

// Registry names and owns metrics. A metric is filed under its canonical
// key — name plus base and caller labels, sorted — which snapshots read. A
// lookup that finds it again allocates nothing (see lookup). All methods
// are safe on a nil receiver and return nil metrics, so instrumentation can
// be wired unconditionally and enabled by supplying a registry.
type Registry struct {
	base     []string // labels stamped on every metric
	histCap  int
	counters sync.Map // key -> *counterEntry
	gauges   sync.Map // key -> *gaugeEntry
	hists    sync.Map // key -> *histEntry

	fastMu sync.RWMutex
	fast   map[string]any // a lookup's spelling (see lookup) -> *Counter, *Gauge or *Histogram
}

type counterEntry struct {
	name   string
	labels []string
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []string
	g      *Gauge
}

type histEntry struct {
	name   string
	labels []string
	h      *Histogram
}

// NewRegistry creates a registry; baseLabels ("key=value") are attached
// to every metric it hands out.
func NewRegistry(baseLabels ...string) *Registry {
	return &Registry{base: append([]string(nil), baseLabels...), histCap: DefaultHistogramCapacity}
}

// SetHistogramCapacity changes the sample-ring size of histograms created
// after the call — harnesses that report tail quantiles (p999) need a
// deeper ring than the operator-dashboard default. Call it before the
// first Histogram lookup; it does not resize existing rings.
func (r *Registry) SetHistogramCapacity(n int) {
	if r != nil && n > 0 {
		r.histCap = n
	}
}

// Default is the process-wide registry used by layers with no natural
// place to plumb one through (column store internals, streaming stages).
// The SOE StatsService folds it into every collection.
var Default = NewRegistry()

func (r *Registry) canon(labels []string) []string {
	all := make([]string, 0, len(r.base)+len(labels))
	all = append(all, r.base...)
	all = append(all, labels...)
	sort.Strings(all)
	return all
}

func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// lookup returns the metric of type typ that the caller names. A hit —
// a lookup spelled as an earlier one was: type, name and labels in the
// caller's order — renders that spelling into a stack buffer and finds it
// in r.fast, which indexing with string(key) does without a copy. A miss
// resolves the canonical key, where create files the metric once however
// it is spelled, and remembers the spelling.
func lookup[M any](r *Registry, typ byte, name string, labels []string, create func(key string, all []string) *M) *M {
	var buf [128]byte // a longer spelling is rendered on the heap, and still found
	key := append(append(buf[:0], typ), name...)
	for _, l := range labels {
		key = append(append(key, 0), l...)
	}
	r.fastMu.RLock()
	m, ok := r.fast[string(key)]
	r.fastMu.RUnlock()
	if ok {
		return m.(*M)
	}
	all := r.canon(labels)
	c := create(metricKey(name, all), all)
	r.fastMu.Lock()
	if r.fast == nil {
		r.fast = map[string]any{}
	}
	r.fast[string(key)] = c
	r.fastMu.Unlock()
	return c
}

// Counter returns (creating if needed) the counter with this name and
// label set.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, 'c', name, labels, func(k string, all []string) *Counter {
		e, _ := r.counters.LoadOrStore(k, &counterEntry{name: name, labels: all, c: &Counter{}})
		return e.(*counterEntry).c
	})
}

// Gauge returns (creating if needed) the gauge with this name and label
// set.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, 'g', name, labels, func(k string, all []string) *Gauge {
		e, _ := r.gauges.LoadOrStore(k, &gaugeEntry{name: name, labels: all, g: &Gauge{}})
		return e.(*gaugeEntry).g
	})
}

// Histogram returns (creating if needed) the histogram with this name and
// label set.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, 'h', name, labels, func(k string, all []string) *Histogram {
		e, _ := r.hists.LoadOrStore(k, &histEntry{name: name, labels: all, h: NewHistogram(r.histCap)})
		return e.(*histEntry).h
	})
}

// --- snapshots ------------------------------------------------------------

// CounterSnap is one counter's state in a snapshot.
type CounterSnap struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  int64    `json:"value"`
}

// GaugeSnap is one gauge's state in a snapshot.
type GaugeSnap struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// BucketSnap is one cumulative histogram bucket: N observations were
// ≤ LE. Only finite bounds are listed; the +Inf bucket is the lifetime
// Count.
type BucketSnap struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// HistogramSnap is one histogram's state in a snapshot, quantiles
// precomputed. P50/P95/P99 come from the recent-sample ring (see
// Histogram); Buckets are exact lifetime cumulative counts.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Labels  []string     `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a typed, JSON-serializable view of a registry (or of many
// merged registries) at one instant.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot captures the registry's current state, sorted by metric key.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.counters.Range(func(_, v any) bool {
		e := v.(*counterEntry)
		s.Counters = append(s.Counters, CounterSnap{Name: e.name, Labels: e.labels, Value: e.c.Value()})
		return true
	})
	r.gauges.Range(func(_, v any) bool {
		e := v.(*gaugeEntry)
		s.Gauges = append(s.Gauges, GaugeSnap{Name: e.name, Labels: e.labels, Value: e.g.Value()})
		return true
	})
	r.hists.Range(func(_, v any) bool {
		e := v.(*histEntry)
		s.Histograms = append(s.Histograms, e.h.snapshot(e.name, e.labels))
		return true
	})
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		return metricKey(s.Counters[i].Name, s.Counters[i].Labels) < metricKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return metricKey(s.Gauges[i].Name, s.Gauges[i].Labels) < metricKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return metricKey(s.Histograms[i].Name, s.Histograms[i].Labels) < metricKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// Counter returns the value of the counter with exactly this name and
// label set, and whether it exists.
func (s Snapshot) Counter(name string, labels ...string) (int64, bool) {
	sort.Strings(labels)
	k := metricKey(name, labels)
	for _, c := range s.Counters {
		if metricKey(c.Name, c.Labels) == k {
			return c.Value, true
		}
	}
	return 0, false
}

// CountersNamed returns every counter with the given name, across label
// sets.
func (s Snapshot) CountersNamed(name string) []CounterSnap {
	var out []CounterSnap
	for _, c := range s.Counters {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// CounterTotal sums every counter with the given name across label sets —
// the cluster-wide view of a per-node metric.
func (s Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// HistogramNamed returns the first histogram with the given name (any
// label set), and whether one exists.
func (s Snapshot) HistogramNamed(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}

// LabelValue extracts the value of a "key=value" label, if present.
func LabelValue(labels []string, key string) (string, bool) {
	prefix := key + "="
	for _, l := range labels {
		if strings.HasPrefix(l, prefix) {
			return l[len(prefix):], true
		}
	}
	return "", false
}

// Merge combines snapshots: counters with identical name+labels sum,
// gauges take the later snapshot's value, histograms combine count/sum
// and min/max exactly while quantiles take the per-source maximum (a
// conservative upper bound — exact cross-source quantiles would need the
// raw samples).
func Merge(snaps ...Snapshot) Snapshot {
	counters := map[string]*CounterSnap{}
	gauges := map[string]*GaugeSnap{}
	hists := map[string]*HistogramSnap{}
	var order []string
	for _, s := range snaps {
		for _, c := range s.Counters {
			k := "c:" + metricKey(c.Name, c.Labels)
			if e, ok := counters[k]; ok {
				e.Value += c.Value
			} else {
				cp := c
				counters[k] = &cp
				order = append(order, k)
			}
		}
		for _, g := range s.Gauges {
			k := "g:" + metricKey(g.Name, g.Labels)
			if e, ok := gauges[k]; ok {
				e.Value = g.Value
			} else {
				cp := g
				gauges[k] = &cp
				order = append(order, k)
			}
		}
		for _, h := range s.Histograms {
			k := "h:" + metricKey(h.Name, h.Labels)
			if e, ok := hists[k]; ok {
				if h.Count > 0 {
					if e.Count == 0 || h.Min < e.Min {
						e.Min = h.Min
					}
					if e.Count == 0 || h.Max > e.Max {
						e.Max = h.Max
					}
				}
				e.Count += h.Count
				e.Sum += h.Sum
				e.P50 = math.Max(e.P50, h.P50)
				e.P95 = math.Max(e.P95, h.P95)
				e.P99 = math.Max(e.P99, h.P99)
				// Bucket counts sum exactly when both sides share the
				// standard bounds; a shape mismatch drops buckets rather
				// than merge misaligned bounds.
				if len(e.Buckets) == len(h.Buckets) {
					merged := append([]BucketSnap(nil), e.Buckets...)
					for i := range merged {
						if merged[i].LE != h.Buckets[i].LE {
							merged = nil
							break
						}
						merged[i].N += h.Buckets[i].N
					}
					e.Buckets = merged
				} else {
					e.Buckets = nil
				}
			} else {
				cp := h
				hists[k] = &cp
				order = append(order, k)
			}
		}
	}
	var out Snapshot
	for _, k := range order {
		switch k[0] {
		case 'c':
			out.Counters = append(out.Counters, *counters[k])
		case 'g':
			out.Gauges = append(out.Gauges, *gauges[k])
		case 'h':
			out.Histograms = append(out.Histograms, *hists[k])
		}
	}
	out.sort()
	return out
}

// Delta subtracts counter values in before from those in after (new
// counters pass through), dropping counters that did not change. Gauges
// and histograms are taken from after unchanged. Benchmark harnesses use
// this to report what one phase did.
func Delta(before, after Snapshot) Snapshot {
	prev := map[string]int64{}
	for _, c := range before.Counters {
		prev[metricKey(c.Name, c.Labels)] = c.Value
	}
	var out Snapshot
	for _, c := range after.Counters {
		d := c.Value - prev[metricKey(c.Name, c.Labels)]
		if d != 0 {
			out.Counters = append(out.Counters, CounterSnap{Name: c.Name, Labels: c.Labels, Value: d})
		}
	}
	out.Gauges = append(out.Gauges, after.Gauges...)
	out.Histograms = append(out.Histograms, after.Histograms...)
	out.sort()
	return out
}

// String renders the snapshot as aligned text (shell, logs).
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&sb, "counter    %-44s %d\n", metricKey(c.Name, c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&sb, "gauge      %-44s %g\n", metricKey(g.Name, g.Labels), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&sb, "histogram  %-44s n=%d sum=%.2f min=%.3f max=%.3f p50=%.3f p95=%.3f p99=%.3f\n",
			metricKey(h.Name, h.Labels), h.Count, h.Sum, h.Min, h.Max, h.P50, h.P95, h.P99)
	}
	return sb.String()
}
