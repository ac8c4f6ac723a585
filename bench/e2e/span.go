package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work share a
// trace id (the id of their root span); Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// cursor is where the next replayed child is laid inside this span.
	cursor int64
}

func (s span) dur() int64 { return s.End - s.Start }

// trace is the in-memory span recorder of a traced run. It lives in the
// benchmark, not in the program: spans are recorded around the calls the
// harness makes into each layer. A nil *trace records nothing, so the
// untraced run pays one nil check per call site.
type trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[i].ID == i+1
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

// begin opens a span that is timed where it happens: between this call
// and end. parent 0 starts a new trace.
func (t *trace) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	tid := id
	if parent > 0 {
		tid = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: tid, Name: name, Start: now, cursor: now})
	return id
}

func (t *trace) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// replayed records a child whose duration the harness measured by making
// the layer call again on the same inputs after the parent returned. The
// child is laid inside the parent after its earlier children, so the
// written trace reads like one nested call; it may run past the parent's
// end when the parts took longer than the whole did.
func (t *trace) replayed(name string, parent int, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.spans[parent-1]
	id := len(t.spans) + 1
	start := p.cursor
	p.cursor += d.Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: p.Trace, Name: name, Start: start, End: p.cursor, cursor: start})
	return id
}

// traceSummary is what the per-layer table needs from the recorded spans.
// Durations are summed per trace and span name first, so a unit that
// makes five round trips counts their sum, and every statistic is a
// median over traces.
type traceSummary struct {
	// totalUS is the median duration per span name, over every trace
	// that has such a span; count is how many traces that is.
	totalUS map[string]float64
	count   map[string]int
	// selfUS is a span name's self time: its median duration minus its
	// children's median durations, not below zero, taken over replayed
	// traces only (those with more than one span; a root without
	// children would count whole as its own self time). The arithmetic is
	// done on medians, not trace by trace, because a replayed child is
	// timed apart from its parent: trace by trace, noise that cancels in
	// the medians would be clipped at zero on one side only and add up.
	selfUS map[string]float64
	// share is selfUS over the median duration of the name's root.
	share map[string]float64
	// coverage is the sum of all self times over the roots' durations: 1
	// when the replayed parts fit inside the calls they are parts of,
	// above 1 by as much as they take longer than the whole did.
	coverage float64
	traces   int // replayed traces
}

func summarize(spans []span) traceSummary {
	size := map[int]int{}
	parentName := map[string]string{} // "" for a root
	for _, s := range spans {
		size[s.Trace]++
		parentName[s.Name] = ""
		if s.Parent > 0 {
			parentName[s.Name] = spans[s.Parent-1].Name
		}
	}
	perTrace := map[int]map[string]int64{}
	for _, s := range spans {
		if perTrace[s.Trace] == nil {
			perTrace[s.Trace] = map[string]int64{}
		}
		perTrace[s.Trace][s.Name] += s.dur()
	}
	all, replayed := map[string][]float64{}, map[string][]float64{}
	out := traceSummary{totalUS: map[string]float64{}, count: map[string]int{}, selfUS: map[string]float64{}, share: map[string]float64{}}
	for tid, byName := range perTrace {
		for name, ns := range byName {
			all[name] = append(all[name], float64(ns)/1e3)
			if size[tid] > 1 {
				replayed[name] = append(replayed[name], float64(ns)/1e3)
			}
		}
		if size[tid] > 1 {
			out.traces++
		}
	}
	for name, us := range all {
		out.totalUS[name], out.count[name] = quantile(us, 0.5), len(us)
	}
	med := map[string]float64{}
	for name, us := range replayed {
		med[name] = quantile(us, 0.5)
	}
	var roots, parts float64
	for name, own := range med {
		for kid, parent := range parentName {
			if parent == name {
				own -= med[kid]
			}
		}
		out.selfUS[name] = max(own, 0)
		parts += out.selfUS[name]
		root := name
		for parentName[root] != "" {
			root = parentName[root]
		}
		out.share[name] = out.selfUS[name] / med[root]
		if root == name {
			roots += med[name]
		}
	}
	if roots > 0 {
		out.coverage = parts / roots
	}
	return out
}

// write stores the spans as JSON lines, one span a line.
func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
