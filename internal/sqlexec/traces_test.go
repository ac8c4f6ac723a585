package sqlexec

import (
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// TestTracesReadWhileRingEvicts: readers of the tracer — Recent, Trace
// through RenderTrace, Render and sys.m_traces — each read 300 times while
// a writer records trees into a ring of eight roots, evicting it hundreds
// of times over and taking its spans from the trees it evicts. Every tree a reader gets is a
// copy of one trace: one TraceID, each child under its parent, every span
// carrying its own trace's sequence number; a span reused for a later
// trace never shows in an earlier one. Run it under -race.
func TestTracesReadWhileRingEvicts(t *testing.T) {
	e := NewEngine()
	e.Tracer = stats.NewTracer(8)
	tr := e.Tracer
	const reads = 300
	stop := make(chan struct{})
	var written atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // each tree: w(seq) with two children, one of them with a child, and a remote continuation r(seq) of the other
		defer writer.Done()
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			w := tr.Start("w")
			w.AddInt("seq", seq)
			c1, c2 := w.Child("c"), w.Child("c")
			c1.AddInt("seq", seq)
			c2.AddInt("seq", seq)
			g := c1.Child("g")
			g.AddInt("seq", seq)
			g.Finish()
			c1.Finish()
			r := tr.StartRemote("r", c2.Context())
			r.AddInt("seq", seq)
			rc := r.Child("rc")
			rc.AddInts("seq", []int{seq})
			rc.Finish()
			r.Finish()
			c2.Finish()
			w.Finish()
			written.Add(1)
		}
	}()

	seqOf := regexp.MustCompile(`seq=\[?(\d+)`)
	var checked atomic.Int64
	check := func(what, text string) {
		checked.Add(1)
		var seqs []string
		for _, m := range seqOf.FindAllStringSubmatch(text, -1) {
			seqs = append(seqs, m[1])
		}
		for _, s := range seqs {
			if s != seqs[0] {
				t.Errorf("%s mixes two traces' spans:\n%s", what, text)
				return
			}
		}
	}
	var checkTree func(root, s *stats.Span, seq string)
	checkTree = func(root, s *stats.Span, seq string) {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s of trace %x carries trace %x", s.Name, root.TraceID, s.TraceID)
		}
		want := "seq=" + seq
		if s.Name == "rc" {
			want = "seq=[" + seq + "]"
		}
		if got := strings.Join(s.Attrs(), " "); got != want {
			t.Errorf("span %s of trace %x reads %q, want %q", s.Name, root.TraceID, got, want)
		}
		for _, c := range s.Children() {
			if c.ParentID != s.SpanID {
				t.Errorf("span %s of trace %x is under %x, its parent says %x", c.Name, root.TraceID, c.ParentID, s.SpanID)
			}
			checkTree(root, c, seq)
		}
	}
	sizes := map[string]int{"w": 4, "r": 2}
	readers := []func(){
		func() {
			for _, root := range tr.Recent(8) {
				attrs := root.Attrs()
				if root.Name == "sql" || len(attrs) != 1 {
					continue
				}
				checkTree(root, root, strings.TrimPrefix(attrs[0], "seq="))
				n := 0
				var count func(*stats.Span)
				count = func(s *stats.Span) {
					n++
					for _, c := range s.Children() {
						count(c)
					}
				}
				if count(root); n != sizes[root.Name] {
					t.Errorf("root %s of trace %x holds %d spans, want %d", root.Name, root.TraceID, n, sizes[root.Name])
				}
				check("RenderTrace", tr.RenderTrace(root.TraceID))
			}
		},
		func() {
			for _, block := range strings.Split(tr.Render(8), "\n\n") {
				check("Render", block)
			}
		},
		func() {
			r, err := e.Query(`SELECT root, attrs, spans FROM sys.m_traces`)
			if err != nil {
				t.Error(err)
				return
			}
			for _, row := range r.Rows {
				root, attrs, spans := row[0].AsString(), row[1].AsString(), row[2].AsInt()
				if want, ok := sizes[root]; ok && (spans != int64(want) || !strings.HasPrefix(attrs, "seq=")) {
					t.Errorf("sys.m_traces reads root %s [%s] with %d spans, want %d", root, attrs, spans, want)
				}
			}
		},
	}
	var wg sync.WaitGroup
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads && !t.Failed(); i++ {
				read()
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if n := written.Load(); n < 100 {
		t.Fatalf("the writer recorded %d trees while the readers read: the ring was not evicted under them", n)
	}
	t.Logf("%d trees written, %d traces read", written.Load(), checked.Load())
}
