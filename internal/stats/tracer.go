package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idGen hands out process-unique span/trace IDs. The whole simulated
// landscape runs in one process, so a counter is collision-free; IDs are
// rendered in hex to look like what a wire-format tracer would carry.
var idGen atomic.Uint64

func nextID() uint64 { return idGen.Add(1) }

// SpanContext is the portable identity of a span — what crosses process
// (here: netsim message) boundaries so a remote handler can parent its
// own spans into the caller's trace. The zero value means "no trace".
type SpanContext struct {
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// Valid reports whether the context identifies a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Span is one timed operation in a hierarchical trace: query → plan →
// per-partition task → log append. Spans are created through a Tracer
// (roots) or a parent span (children); both are safe on nil receivers so
// tracing can be compiled in everywhere and enabled by supplying a
// Tracer. Children may be created from multiple goroutines (fan-out).
//
// Every span carries a TraceID (shared by all spans of one causal
// operation, including spans recorded by remote services) and its own
// SpanID; ParentID links remote continuation roots back to the span that
// issued the request.
//
// A span keeps its attributes ("key=value" labels) and its first child in
// its own memory: the constructors copy the attributes in, so the caller's
// argument list stays on its stack, and only a span with more than
// inlineAttrs of them, or a second child, allocates for the rest.
type Span struct {
	Name  string
	Begin time.Time

	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for trace origins

	mu       sync.Mutex
	attrs    []string // inline's memory unless there are more
	inline   [inlineAttrs]string
	end      time.Time
	children []*Span // first's memory until there is a second
	first    [1]*Span
	tracer   *Tracer // set on roots; Finish records the trace
}

// inlineAttrs is how many attributes a span holds without allocating:
// every span the landscape records carries at most this many.
const inlineAttrs = 2

// newSpan is a span with its attributes copied in.
func newSpan(name string, attrs []string, traceID, spanID, parentID uint64) *Span {
	s := &Span{Name: name, Begin: time.Now(), TraceID: traceID, SpanID: spanID, ParentID: parentID}
	s.attrs = append(s.inline[:0], attrs...)
	return s
}

// Attrs returns the span's attributes in the order they were given.
func (s *Span) Attrs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs
}

// AddAttr appends an attribute learned after the span was opened (a row
// count, an error).
func (s *Span) AddAttr(attr string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr)
	s.mu.Unlock()
}

// Child opens a sub-span sharing the trace ID.
func (s *Span) Child(name string, attrs ...string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, attrs, s.TraceID, nextID(), s.SpanID)
	s.mu.Lock()
	if s.children == nil {
		s.children = s.first[:0]
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Context returns the span's propagation context (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Finish closes the span; finishing a root records the trace in its
// tracer's ring buffer.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.record(s)
	}
}

// Duration returns the span's elapsed time (up to now if unfinished).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.Begin)
	}
	return s.end.Sub(s.Begin)
}

// Children returns a copy of the child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Tracer produces root spans and retains the most recent finished traces
// in a ring buffer for the shell renderer and the /traces endpoint. Safe
// on a nil receiver (tracing disabled).
//
// One trace may span several recorded roots: the origin (Start) plus any
// remote continuations (StartRemote) recorded by services that received
// the origin's SpanContext over the network. The renderers stitch them
// back together by TraceID/ParentID, so evicting the origin from the
// ring never hides or double-counts its surviving remote children — they
// render once, marked detached.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	total atomic.Int64
}

// NewTracer returns a tracer retaining up to capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Span, 0, capacity)}
}

// Start opens a trace-origin root span; Finish on it records the whole
// trace.
func (t *Tracer) Start(name string, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	id := nextID()
	s := newSpan(name, attrs, id, id, 0)
	s.tracer = t
	return s
}

// StartRemote opens a root span that continues a trace started elsewhere:
// it adopts the caller's TraceID and parents itself under the caller's
// span. This is what a service invokes when a netsim message arrives
// carrying a SpanContext. With an invalid context it degrades to Start.
func (t *Tracer) StartRemote(name string, parent SpanContext, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.Start(name, attrs...)
	}
	s := newSpan(name, attrs, parent.TraceID, nextID(), parent.SpanID)
	s.tracer = t
	return s
}

func (t *Tracer) record(root *Span) {
	t.total.Add(1)
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, root)
	} else {
		t.ring[t.next] = root
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
}

// Total returns the number of traces recorded since creation.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Recent returns up to n finished root spans, most recent first. Remote
// continuation roots count as entries of their own here; use Render or
// RenderTrace for the stitched view.
func (t *Tracer) Recent(n int) []*Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, n)
	for i := 0; i < len(t.ring) && len(out) < n; i++ {
		// Walk backwards from the slot before next (the newest entry).
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if len(t.ring) < cap(t.ring) {
			// Ring not yet saturated: entries are [0, len) in order.
			idx = len(t.ring) - 1 - i
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// Trace returns every retained root belonging to one trace, oldest
// first: the origin (if still in the ring) and any remote continuations.
func (t *Tracer) Trace(traceID uint64) []*Span {
	if t == nil || traceID == 0 {
		return nil
	}
	var out []*Span
	for _, r := range t.Recent(t.ringLen()) {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Begin.Before(out[j].Begin) })
	return out
}

// Render formats the n most recent traces as an indented text tree — the
// shell and /traces presentation. Roots sharing a TraceID are stitched
// into one tree: remote continuations attach under the span that issued
// them, or render once as detached when that parent was evicted.
func (t *Tracer) Render(n int) string {
	roots := t.Recent(t.ringLen())
	if len(roots) == 0 {
		return "(no traces)\n"
	}
	var order []uint64
	seen := map[uint64]bool{}
	for _, r := range roots { // newest first
		if !seen[r.TraceID] {
			seen[r.TraceID] = true
			order = append(order, r.TraceID)
		}
	}
	if len(order) > n {
		order = order[:n]
	}
	var sb strings.Builder
	for i, id := range order {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(t.renderTraceLocked(id))
	}
	return sb.String()
}

// ringLen returns the ring capacity (for Recent's "everything" walks).
func (t *Tracer) ringLen() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.ring)
}

// RenderTrace formats one trace — every retained root with this TraceID
// stitched into a single tree. Unknown IDs yield "(trace not found)".
func (t *Tracer) RenderTrace(traceID uint64) string {
	if t == nil {
		return "(no traces)\n"
	}
	out := t.renderTraceLocked(traceID)
	if out == "" {
		return fmt.Sprintf("(trace %x not found)\n", traceID)
	}
	return out
}

func (t *Tracer) renderTraceLocked(traceID uint64) string {
	roots := t.Trace(traceID)
	if len(roots) == 0 {
		return ""
	}
	// Index the remote continuations by the span they hang off.
	known := map[uint64]bool{} // every SpanID present in this trace's retained trees
	for _, r := range roots {
		walkSpans(r, func(s *Span) { known[s.SpanID] = true })
	}
	byParent := map[uint64][]*Span{}
	var tops []*Span // origin plus continuations whose parent was evicted
	for _, r := range roots {
		if r.ParentID != 0 && known[r.ParentID] {
			byParent[r.ParentID] = append(byParent[r.ParentID], r)
		} else {
			tops = append(tops, r)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %x\n", traceID)
	for _, r := range tops {
		detached := r.ParentID != 0 // parent span evicted from the ring
		renderSpan(&sb, r, 1, byParent, detached)
	}
	return sb.String()
}

func walkSpans(s *Span, fn func(*Span)) {
	fn(s)
	for _, c := range s.Children() {
		walkSpans(c, fn)
	}
}

func renderSpan(sb *strings.Builder, s *Span, depth int, byParent map[uint64][]*Span, detached bool) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s %.3fms", s.Name, float64(s.Duration())/float64(time.Millisecond))
	if attrs := s.Attrs(); len(attrs) > 0 {
		fmt.Fprintf(sb, " [%s]", strings.Join(attrs, " "))
	}
	if detached {
		sb.WriteString(" (detached: parent evicted)")
	}
	sb.WriteString("\n")
	for _, c := range s.Children() {
		renderSpan(sb, c, depth+1, byParent, false)
	}
	for _, r := range byParent[s.SpanID] {
		renderSpan(sb, r, depth+1, byParent, false)
	}
}
