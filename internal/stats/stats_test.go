package stats

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(8)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty histogram q%.2f = %v, want 0", q, v)
		}
	}
	snap := h.snapshot("x_ms", nil)
	if snap.Count != 0 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 || snap.P50 != 0 || snap.P99 != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", snap)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := h.Quantile(q); v != 42 {
			t.Fatalf("single-sample q%.2f = %v, want 42", q, v)
		}
	}
	snap := h.snapshot("x_ms", nil)
	if snap.Count != 1 || snap.Sum != 42 || snap.Min != 42 || snap.Max != 42 {
		t.Fatalf("single-sample snapshot wrong: %+v", snap)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1}
	for q, want := range cases {
		if got := h.Quantile(q); got != want {
			t.Fatalf("q%.2f = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramSaturatedRing(t *testing.T) {
	h := NewHistogram(4)
	// 1..8: the ring retains only the last 4 samples (5,6,7,8), but
	// lifetime count/sum/min/max cover all 8.
	for i := 1; i <= 8; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 5 {
		t.Fatalf("saturated ring min-quantile = %v, want 5 (oldest retained)", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("saturated ring max-quantile = %v, want 8", got)
	}
	snap := h.snapshot("x_ms", nil)
	if snap.Count != 8 || snap.Sum != 36 || snap.Min != 1 || snap.Max != 8 {
		t.Fatalf("lifetime stats wrong after saturation: %+v", snap)
	}
}

func TestHistogramCapacityFloor(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(1)
	h.Observe(2)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("capacity-1 ring keeps latest: got %v", got)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Half the increments re-resolve the counter through the
				// registry (the lookup path, whose first calls race to
				// create it), half use a cached pointer — both must be
				// race-free.
				r.Counter("hits_total", "svc=a").Inc()
				c := r.Counter("hits_total", "svc=b")
				c.Inc()
				r.Histogram("lat_ms").Observe(float64(i))
				r.Gauge("depth").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("hits_total", "svc=a").Value(); v != goroutines*perG {
		t.Fatalf("svc=a count = %d, want %d", v, goroutines*perG)
	}
	if v := r.Counter("hits_total", "svc=b").Value(); v != goroutines*perG {
		t.Fatalf("svc=b count = %d, want %d", v, goroutines*perG)
	}
	if n := r.Histogram("lat_ms").Count(); n != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*perG)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil registry counter = %d", v)
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
	var tr *Tracer
	sp := tr.Start("op")
	sp.Child("sub").Finish()
	sp.Finish()
	if tr.Total() != 0 || sp.Duration() != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

func TestRegistryBaseLabelsAndSnapshot(t *testing.T) {
	r := NewRegistry("node=n1")
	r.Counter("q_total", "table=orders").Add(7)
	r.Gauge("applied_ts").Set(99)
	r.Histogram("exec_ms").Observe(1.5)
	snap := r.Snapshot()
	v, ok := snap.Counter("q_total", "node=n1", "table=orders")
	if !ok || v != 7 {
		t.Fatalf("labeled counter lookup: %v %v", v, ok)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 99 {
		t.Fatalf("gauge snapshot: %+v", snap.Gauges)
	}
	if node, ok := LabelValue(snap.Counters[0].Labels, "node"); !ok || node != "n1" {
		t.Fatalf("base label missing: %v", snap.Counters[0].Labels)
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not unmarshal: %v", err)
	}
	if v, ok := back.Counter("q_total", "node=n1", "table=orders"); !ok || v != 7 {
		t.Fatalf("roundtripped counter: %v %v", v, ok)
	}
}

// TestRegistryHitAllocatesNothing: finding a metric again on a registry
// with base labels — an SOE node's, a service's — allocates nothing, with
// or without a label of the caller's, whatever the metric type. Two
// spellings of one label set are one metric, and the snapshot lists it once.
func TestRegistryHitAllocatesNothing(t *testing.T) {
	r := NewRegistry("node=n1", "role=data")
	for _, c := range []struct {
		name string
		hit  func()
	}{
		{"counter", func() { r.Counter("q_total").Inc() }},
		{"labelled counter", func() { r.Counter("q_total", "result=ok").Inc() }},
		{"two-label counter", func() { r.Counter("q_total", "service=v2dqp", "result=ok").Inc() }},
		{"gauge", func() { r.Gauge("applied_ts").Set(1) }},
		{"labelled histogram", func() { r.Histogram("exec_ms", "proto=simple").Observe(1) }},
	} {
		c.hit() // the miss that creates it
		if got := testing.AllocsPerRun(100, c.hit); got != 0 {
			t.Errorf("%s: a hit allocates %.0f times, want 0", c.name, got)
		}
	}

	if r.Counter("q_total", "result=ok", "service=v2dqp") != r.Counter("q_total", "service=v2dqp", "result=ok") {
		t.Fatal("two spellings of one label set are two counters")
	}
	if r.Counter("q_total", "result=ok") == r.Counter("q_total") || r.Gauge("q_total") == nil {
		t.Fatal("a label set, or a metric type, shares another's metric")
	}
	snap := r.Snapshot()
	if n := len(snap.CountersNamed("q_total")); n != 3 {
		t.Fatalf("%d q_total counters in the snapshot, want 3: %+v", n, snap.Counters)
	}
	if v, _ := snap.Counter("q_total", "node=n1", "role=data", "result=ok", "service=v2dqp"); v != 102 {
		t.Fatalf("two-label counter = %d, want 102: the miss, AllocsPerRun's warm-up run and 100 runs", v)
	}
}

func TestMergeAndDelta(t *testing.T) {
	a := NewRegistry("node=a")
	b := NewRegistry("node=b")
	a.Counter("q_total").Add(3)
	b.Counter("q_total").Add(5)
	a.Histogram("lat_ms").Observe(10)
	b.Histogram("lat_ms").Observe(30)

	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.CounterTotal("q_total"); got != 8 {
		t.Fatalf("merged total = %d, want 8", got)
	}
	if len(m.CountersNamed("q_total")) != 2 {
		t.Fatal("per-node counters collapsed despite distinct labels")
	}

	// Identical label sets must sum.
	c1 := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 2}}}
	c2 := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 3}}}
	if v, _ := Merge(c1, c2).Counter("x"); v != 5 {
		t.Fatalf("same-key merge = %d, want 5", v)
	}

	// Histogram merge: counts/sums exact, quantiles conservative max.
	h1 := Snapshot{Histograms: []HistogramSnap{{Name: "h", Count: 1, Sum: 10, Min: 10, Max: 10, P99: 10}}}
	h2 := Snapshot{Histograms: []HistogramSnap{{Name: "h", Count: 1, Sum: 30, Min: 30, Max: 30, P99: 30}}}
	hm := Merge(h1, h2).Histograms[0]
	if hm.Count != 2 || hm.Sum != 40 || hm.Min != 10 || hm.Max != 30 || hm.P99 != 30 {
		t.Fatalf("histogram merge wrong: %+v", hm)
	}

	before := c1
	after := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 9}, {Name: "y", Value: 4}}}
	d := Delta(before, after)
	if v, _ := d.Counter("x"); v != 7 {
		t.Fatalf("delta x = %d, want 7", v)
	}
	if v, _ := d.Counter("y"); v != 4 {
		t.Fatalf("delta y = %d, want 4", v)
	}
}
