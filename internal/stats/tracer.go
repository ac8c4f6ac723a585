package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
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
// A span is the tracer's memory: it comes from the tracer's free list and
// goes back to it, with its whole tree, when the ring evicts its root. So
// a span holds nothing that would have to be allocated per use — its
// attributes are fixed-size fields (a key and a string or an integer, a
// list in a buffer the span keeps), rendered as "key=value" only when
// something reads them, and its children are a list linked through them.
// The price is a rule: whoever holds a span drops it when it finishes,
// because after that the span may already carry another trace. Readers
// never see ring memory: Recent and Trace hand out copies.
type Span struct {
	Name  string
	Begin time.Time

	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for trace origins

	mu     sync.Mutex
	attrs  []attr // inline's memory unless there are more
	inline [inlineAttrs]attr
	ints   []int // the list attribute's values: intBuf's memory unless longer
	intBuf [4]int
	end    time.Time
	kids   *Span // the first child; the rest follow through next
	last   *Span // the last child
	next   *Span // the next sibling, guarded by the parent's mu
	tracer *Tracer
	root   bool // Finish records the trace
}

// inlineAttrs is how many attributes a span holds in its own memory:
// every span the landscape records carries at most this many.
const inlineAttrs = 2

// attr is one attribute: a label given whole ("node=n1"), or a key with a
// string, an integer or the span's list of integers (ints).
type attr struct {
	kind attrKind
	key  string
	str  string
	n    int64
}

type attrKind uint8

const (
	attrLabel attrKind = iota
	attrStr
	attrInt
	attrInts
)

// appendTo renders a as "key=value"; a list renders as fmt's %v prints
// it, "[0 4]".
func (a attr) appendTo(b []byte, ints []int) []byte {
	if a.kind == attrLabel {
		return append(b, a.str...)
	}
	b = append(append(b, a.key...), '=')
	switch a.kind {
	case attrStr:
		b = append(b, a.str...)
	case attrInt:
		b = strconv.AppendInt(b, a.n, 10)
	case attrInts:
		b = append(b, '[')
		for i, v := range ints {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	return b
}

// Attrs renders the span's attributes, in the order they were given.
func (s *Span) Attrs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.attrs) == 0 {
		return nil
	}
	out := make([]string, len(s.attrs))
	var buf []byte
	for i, a := range s.attrs {
		buf = a.appendTo(buf[:0], s.ints)
		out[i] = string(buf)
	}
	return out
}

// add appends an attribute learned after the span was opened.
func (s *Span) add(a attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// AddString appends the attribute key=v.
func (s *Span) AddString(key, v string) { s.add(attr{kind: attrStr, key: key, str: v}) }

// AddInt appends the attribute key=n.
func (s *Span) AddInt(key string, n int) { s.add(attr{kind: attrInt, key: key, n: int64(n)}) }

// AddInts appends the attribute key=[v0 v1 …], copying vs into the span's
// list buffer. A span holds one list.
func (s *Span) AddInts(key string, vs []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ints = append(s.ints[:0], vs...)
	s.attrs = append(s.attrs, attr{kind: attrInts, key: key})
	s.mu.Unlock()
}

// Child opens a sub-span sharing the trace ID, with labels given whole.
func (s *Span) Child(name string, labels ...string) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(name, labels, s.TraceID, nextID(), s.SpanID)
	s.mu.Lock()
	s.link(c)
	s.mu.Unlock()
	return c
}

// link appends c to s's children. Called with s.mu held.
func (s *Span) link(c *Span) {
	if s.last == nil {
		s.kids = c
	} else {
		s.last.next = c
	}
	s.last = c
}

// Context returns the span's propagation context (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Finish closes the span; finishing a root records the trace in its
// tracer's ring buffer. Only the first Finish counts.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := s.end.IsZero()
	if first {
		s.end = time.Now()
	}
	s.mu.Unlock()
	if first && s.root {
		s.tracer.record(s)
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
	var out []*Span
	for c := s.kids; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// detach copies s's tree into memory of its own: what a reader gets, so
// that nothing a reader holds is ever reused for another trace. A copy
// has no tracer, and finishing it records nothing.
func (s *Span) detach() *Span {
	s.mu.Lock()
	c := &Span{Name: s.Name, Begin: s.Begin, TraceID: s.TraceID, SpanID: s.SpanID, ParentID: s.ParentID, end: s.end}
	c.attrs = append(c.inline[:0], s.attrs...)
	c.ints = append(c.intBuf[:0], s.ints...)
	var kids []*Span
	for k := s.kids; k != nil; k = k.next {
		kids = append(kids, k)
	}
	s.mu.Unlock()
	for _, k := range kids {
		c.link(k.detach())
	}
	return c
}

// finished reports whether every span of s's tree has finished. A
// parent's lock is held while its children are asked: nothing takes a
// child's lock and then its parent's.
func (s *Span) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return false
	}
	for c := s.kids; c != nil; c = c.next {
		if !c.finished() {
			return false
		}
	}
	return true
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
//
// Spans are the tracer's: a span comes from its free list, and a root's
// tree goes back to it when the ring evicts the root — every span of it
// finished, or the tree is left to the GC. A remote continuation is a
// root of its own and goes back when it is evicted. The free list holds
// at most maxFree spans, so a burst of large traces leaves no more behind
// than that.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	total atomic.Int64

	fmu     sync.Mutex
	free    []*Span
	maxFree int
}

// NewTracer returns a tracer retaining up to capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Span, 0, capacity), maxFree: 4 * capacity}
}

// newSpan is a span off the free list, or a new one, with labels copied
// in.
func (t *Tracer) newSpan(name string, labels []string, traceID, spanID, parentID uint64) *Span {
	var s *Span
	if t != nil { // nil under a detached copy
		t.fmu.Lock()
		if n := len(t.free); n > 0 {
			s = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		}
		t.fmu.Unlock()
	}
	if s == nil {
		s = &Span{tracer: t}
		s.attrs, s.ints = s.inline[:0], s.intBuf[:0]
	}
	s.Name, s.Begin, s.TraceID, s.SpanID, s.ParentID = name, time.Now(), traceID, spanID, parentID
	for _, l := range labels {
		s.attrs = append(s.attrs, attr{kind: attrLabel, str: l})
	}
	return s
}

// Start opens a trace-origin root span; Finish on it records the whole
// trace.
func (t *Tracer) Start(name string, labels ...string) *Span {
	if t == nil {
		return nil
	}
	id := nextID()
	s := t.newSpan(name, labels, id, id, 0)
	s.root = true
	return s
}

// StartRemote opens a root span that continues a trace started elsewhere:
// it adopts the caller's TraceID and parents itself under the caller's
// span. This is what a service invokes when a netsim message arrives
// carrying a SpanContext. With an invalid context it degrades to Start.
func (t *Tracer) StartRemote(name string, parent SpanContext, labels ...string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.Start(name, labels...)
	}
	s := t.newSpan(name, labels, parent.TraceID, nextID(), parent.SpanID)
	s.root = true
	return s
}

func (t *Tracer) record(root *Span) {
	t.total.Add(1)
	var evicted *Span
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, root)
	} else {
		evicted = t.ring[t.next]
		t.ring[t.next] = root
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
	if evicted != nil && evicted.finished() {
		t.fmu.Lock()
		t.release(evicted)
		t.fmu.Unlock()
	}
}

// release puts the tree of s, which no ring slot and no reader holds any
// more, on the free list — as much of it as the list has room for —
// emptied but keeping its attributes' capacity. s keeps its identity until
// it is reused. Called with t.fmu held.
func (t *Tracer) release(s *Span) {
	for c := s.kids; c != nil; {
		next := c.next
		t.release(c)
		c = next
	}
	clear(s.attrs)
	s.attrs, s.ints = s.attrs[:0], s.ints[:0]
	s.kids, s.last, s.next = nil, nil, nil
	s.end, s.root = time.Time{}, false
	if len(t.free) < t.maxFree {
		t.free = append(t.free, s)
	}
}

// Total returns the number of traces recorded since creation.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// newestFirst calls fn with every ring entry, newest first, until fn
// returns false. Called with t.mu held.
func (t *Tracer) newestFirst(fn func(*Span) bool) {
	for i := 0; i < len(t.ring); i++ {
		// Walk backwards from the slot before next (the newest entry).
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if len(t.ring) < cap(t.ring) {
			// Ring not yet saturated: entries are [0, len) in order.
			idx = len(t.ring) - 1 - i
		}
		if !fn(t.ring[idx]) {
			return
		}
	}
}

// Recent returns copies of up to n finished root spans, most recent
// first. Remote continuation roots count as entries of their own here;
// use Render or RenderTrace for the stitched view.
func (t *Tracer) Recent(n int) []*Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, min(n, len(t.ring)))
	t.newestFirst(func(r *Span) bool {
		out = append(out, r.detach())
		return len(out) < n
	})
	return out
}

// Trace returns copies of every retained root belonging to one trace,
// oldest first: the origin (if still in the ring) and any remote
// continuations.
func (t *Tracer) Trace(traceID uint64) []*Span {
	if t == nil || traceID == 0 {
		return nil
	}
	var out []*Span
	t.mu.Lock()
	t.newestFirst(func(r *Span) bool {
		if r.TraceID == traceID {
			out = append(out, r.detach())
		}
		return true
	})
	t.mu.Unlock()
	return oldestFirst(out)
}

func oldestFirst(roots []*Span) []*Span {
	sort.Slice(roots, func(i, j int) bool { return roots[i].Begin.Before(roots[j].Begin) })
	return roots
}

// Render formats the n most recent traces as an indented text tree — the
// shell and /traces presentation — from one copy of the ring. Roots
// sharing a TraceID are stitched into one tree: remote continuations
// attach under the span that issued them, or render once as detached when
// that parent was evicted.
func (t *Tracer) Render(n int) string {
	roots := t.Recent(math.MaxInt) // newest first
	if len(roots) == 0 {
		return "(no traces)\n"
	}
	var order []uint64
	byTrace := map[uint64][]*Span{}
	for _, r := range roots {
		if _, ok := byTrace[r.TraceID]; !ok {
			order = append(order, r.TraceID)
		}
		byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
	}
	if len(order) > n {
		order = order[:max(n, 0)]
	}
	var sb strings.Builder
	for i, id := range order {
		if i > 0 {
			sb.WriteString("\n")
		}
		renderTrace(&sb, id, oldestFirst(byTrace[id]))
	}
	return sb.String()
}

// RenderTrace formats one trace — every retained root with this TraceID
// stitched into a single tree. Unknown IDs yield "(trace not found)".
func (t *Tracer) RenderTrace(traceID uint64) string {
	if t == nil {
		return "(no traces)\n"
	}
	roots := t.Trace(traceID)
	if len(roots) == 0 {
		return fmt.Sprintf("(trace %x not found)\n", traceID)
	}
	var sb strings.Builder
	renderTrace(&sb, traceID, roots)
	return sb.String()
}

// renderTrace writes one trace's roots — copies, oldest first — as one
// tree.
func renderTrace(sb *strings.Builder, traceID uint64, roots []*Span) {
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
	fmt.Fprintf(sb, "trace %x\n", traceID)
	for _, r := range tops {
		detached := r.ParentID != 0 // parent span evicted from the ring
		renderSpan(sb, r, 1, byParent, detached)
	}
}

// walkSpans calls fn with every span of a detached tree.
func walkSpans(s *Span, fn func(*Span)) {
	fn(s)
	for c := s.kids; c != nil; c = c.next {
		walkSpans(c, fn)
	}
}

// renderSpan writes a detached span and what hangs under it.
func renderSpan(sb *strings.Builder, s *Span, depth int, byParent map[uint64][]*Span, detached bool) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s %.3fms", s.Name, float64(s.Duration())/float64(time.Millisecond))
	if len(s.attrs) > 0 {
		buf := []byte(" [")
		for i, a := range s.attrs {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = a.appendTo(buf, s.ints)
		}
		sb.Write(append(buf, ']'))
	}
	if detached {
		sb.WriteString(" (detached: parent evicted)")
	}
	sb.WriteString("\n")
	for c := s.kids; c != nil; c = c.next {
		renderSpan(sb, c, depth+1, byParent, false)
	}
	for _, r := range byParent[s.SpanID] {
		renderSpan(sb, r, depth+1, byParent, false)
	}
}
