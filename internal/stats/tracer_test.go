package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerHierarchyAndRender(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("query", "sql=SELECT 1")
	plan := root.Child("plan")
	plan.Finish()
	fan := root.Child("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := fan.Child("task")
			sp.Finish()
		}()
	}
	wg.Wait()
	fan.Finish()
	root.Finish()

	if tr.Total() != 1 {
		t.Fatalf("traces recorded = %d, want 1", tr.Total())
	}
	got := tr.Recent(1)
	if len(got) != 1 || got[0].Name != "query" {
		t.Fatalf("recent: %+v", got)
	}
	if n := len(got[0].Children()); n != 2 {
		t.Fatalf("root children = %d, want 2", n)
	}
	text := tr.Render(1)
	for _, want := range []string{"query", "plan", "fanout", "task", "sql=SELECT 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	// Child spans are indented under the root (which itself sits under
	// the "trace <id>" heading).
	if !strings.Contains(text, "\n    plan") {
		t.Fatalf("plan not indented:\n%s", text)
	}
	if root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("root has no ids: %+v", root)
	}
	if plan.TraceID != root.TraceID || plan.ParentID != root.SpanID {
		t.Fatalf("child ids not inherited: root=%d/%d child=%d/%d", root.TraceID, root.SpanID, plan.TraceID, plan.ParentID)
	}
}

// A remote continuation (StartRemote from a propagated SpanContext) must
// stitch under the span that issued it in both Render and RenderTrace.
func TestTracerRemoteSpansStitchIntoOneTrace(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("query")
	task := root.Child("task", "attempt=1")

	remote := tr.StartRemote("exec", task.Context(), "node=node1")
	remote.Child("scan").Finish()
	remote.Finish()

	task.Finish()
	root.Finish()

	if remote.TraceID != root.TraceID {
		t.Fatalf("remote trace id %d != %d", remote.TraceID, root.TraceID)
	}
	got := tr.RenderTrace(root.TraceID)
	for _, want := range []string{"query", "task", "exec", "scan", "node=node1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("stitched trace missing %q:\n%s", want, got)
		}
	}
	// The remote exec span renders nested under the task span.
	ti := strings.Index(got, "task")
	ei := strings.Index(got, "exec")
	if ti < 0 || ei < ti {
		t.Fatalf("exec not under task:\n%s", got)
	}
	execLine := ""
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "exec") {
			execLine = line
		}
	}
	if !strings.HasPrefix(execLine, strings.Repeat("  ", 3)) {
		t.Fatalf("exec not indented below task: %q", execLine)
	}
	// One trace, rendered once: Render must not list the remote root as
	// a second top-level trace.
	all := tr.Render(10)
	if strings.Count(all, "trace ") != 1 {
		t.Fatalf("remote root leaked as separate trace:\n%s", all)
	}
}

// Regression: evicting the origin root from the ring must not orphan or
// leak its surviving remote continuations — they render exactly once,
// marked detached, instead of disappearing or duplicating.
func TestTracerEvictedParentDoesNotOrphanRemoteChildren(t *testing.T) {
	// Record the origin first so it is evicted first, leaving the remote
	// continuation behind in the ring.
	tr2 := NewTracer(2)
	root2 := tr2.Start("query")
	root2.Finish() // recorded first -> evicted first
	remote2 := tr2.StartRemote("exec", root2.Context(), "node=node0")
	remote2.Finish()
	tr2.Start("filler").Finish() // evicts root2, keeps remote2

	got := tr2.RenderTrace(root2.TraceID)
	if !strings.Contains(got, "exec") {
		t.Fatalf("surviving remote child lost:\n%s", got)
	}
	if strings.Count(got, "exec") != 1 {
		t.Fatalf("remote child duplicated:\n%s", got)
	}
	if !strings.Contains(got, "detached") {
		t.Fatalf("evicted parent not flagged:\n%s", got)
	}
	all := tr2.Render(10)
	if strings.Count(all, "exec") != 1 {
		t.Fatalf("orphaned child leaked or lost in /traces view:\n%s", all)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Start("op" + string(rune('a'+i))).Finish()
	}
	recent := tr.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("retained = %d, want 3", len(recent))
	}
	if recent[0].Name != "ope" || recent[2].Name != "opc" {
		t.Fatalf("order wrong: %s .. %s", recent[0].Name, recent[2].Name)
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
}

func TestTracerRenderEmpty(t *testing.T) {
	tr := NewTracer(2)
	if got := tr.Render(5); got != "(no traces)\n" {
		t.Fatalf("empty render: %q", got)
	}
}

// fanoutTree records what one distributed SELECT on four nodes records:
// the coordinator's query with its plan and a task per node, and each
// node's exec continuation with its scan — fourteen spans in five roots,
// with their attributes.
func fanoutTree(tr *Tracer, nodes []string, parts [][]int) {
	q := tr.Start("query")
	q.AddString("sql", "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region")
	q.Child("plan").Finish()
	for i, node := range nodes {
		task := q.Child("task")
		task.AddString("node", node)
		task.AddInt("attempt", 1)
		exec := tr.StartRemote("exec", task.Context())
		exec.AddString("node", node)
		scan := exec.Child("scan")
		scan.AddInts("partitions", parts[i])
		scan.Finish()
		exec.AddInt("rows_scanned", 12500+i)
		exec.Finish()
		task.Finish()
	}
	q.Finish()
}

var (
	treeNodes = []string{"node1", "node2", "node3", "node4"}
	treeParts = [][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
)

// A warm tracer — its ring full, so that every trace it records evicts
// one — records a fan-out's span tree without allocating: the spans come
// from the trees the ring evicts, their attributes are fields, and a
// recycled span renders what its new trace gave it and nothing of its
// old one.
func TestWarmSpanTreeAllocatesNothing(t *testing.T) {
	tr := NewTracer(256)
	for range 256 {
		fanoutTree(tr, treeNodes, treeParts)
	}
	if got := testing.AllocsPerRun(100, func() { fanoutTree(tr, treeNodes, treeParts) }); got != 0 {
		t.Fatalf("a warm fan-out span tree allocates %v times, want 0", got)
	}
	text := tr.Render(1)
	for _, want := range []string{
		"ms [sql=SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region]\n",
		"    plan ",
		"ms [node=node3 attempt=1]\n",
		"ms [node=node3 rows_scanned=12502]\n",
		"ms [partitions=[2 6]]\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("recycled trace lacks %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\n"); n != 15 {
		t.Fatalf("recycled trace renders %d lines, want the heading and 14 spans:\n%s", n, text)
	}
	if tr.Total() != 5*(256+101) {
		t.Fatalf("total = %d roots, want %d", tr.Total(), 5*(256+101))
	}
}

// BenchmarkTraceSpanTree is the tracing of one soe_fanout SELECT on a warm
// tracer: fourteen spans in five roots, their attributes, and the ring
// evicting as many roots. It allocates nothing.
func BenchmarkTraceSpanTree(b *testing.B) {
	tr := NewTracer(256)
	for range 256 {
		fanoutTree(tr, treeNodes, treeParts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanoutTree(tr, treeNodes, treeParts)
	}
}
