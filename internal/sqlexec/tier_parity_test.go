package sqlexec

import (
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/extstore"
)

// TestTierParity is the cross-tier correctness contract: the full parity
// query catalog runs against an engine whose every table is demoted to
// the warm tier under a buffer pool far smaller than the dataset, and
// all three executors must produce output bit-for-bit identical to the
// all-hot reference run. Under -race it also exercises concurrent page
// faulting from the morsel workers.
func TestTierParity(t *testing.T) {
	hot := parityEngine(t)

	warm := parityEngine(t)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 64, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, name := range []string{"orders", "items", "sales", "events", "dims"} {
		entry := warm.Cat.MustTable(name)
		if _, err := store.DemoteTable(entry, warm.Mgr.MinActiveTS()); err != nil {
			t.Fatalf("demote %s: %v", name, err)
		}
		for _, p := range entry.Partitions {
			if p.Tier() != catalog.TierExtended {
				t.Fatalf("%s partition %s still %s after demote", name, p.Name, p.Tier())
			}
			if p.Table.Synopsis() == nil {
				t.Fatalf("%s partition %s has no synopsis", name, p.Name)
			}
		}
	}
	if pages := store.Pages(); pages < 5*8 {
		t.Fatalf("dataset too small to stress the pool: %d pages on disk vs budget 8", pages)
	}

	faulted := false
	for _, q := range parityQueries {
		hot.Mode = ModeInterpreted
		wantKeys := resultKeys(mustExec(t, hot, q.sql, q.params...))

		warm.Mode = ModeInterpreted
		got := mustExec(t, warm, q.sql, q.params...)
		if keys := resultKeys(got); !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("%s: warm interpreted output differs from all-hot (%d vs %d rows)",
				q.sql, len(keys), len(wantKeys))
		}
		if got.Stats.PageFaults > 0 {
			faulted = true
		}
		for _, workers := range []int{1, 4} {
			warm.Mode = ModeVectorized
			warm.Workers = workers
			got := mustExec(t, warm, q.sql, q.params...)
			if keys := resultKeys(got); !reflect.DeepEqual(keys, wantKeys) {
				t.Errorf("%s: warm vectorized(workers=%d) output differs from all-hot (%d vs %d rows)",
					q.sql, workers, len(keys), len(wantKeys))
			}
			if got.Stats.PageFaults > 0 {
				faulted = true
			}
		}
	}
	if !faulted {
		t.Fatal("no query reported page faults — warm tier was never exercised")
	}

	// The pool must have stayed within (or near) its budget: clock eviction
	// keeps residency bounded even though the dataset is ~an order of
	// magnitude larger.
	if ps := store.Pool(); ps.ResidentPages > 8+4 {
		t.Fatalf("pool over budget after the suite: %d resident pages (budget 8)", ps.ResidentPages)
	}
}

// TestTierPromoteRoundTrip demotes, queries, promotes and asserts results
// and tier tags stay consistent — plus re-hydration via an ordinary MERGE
// DELTA, which records the synopsis of the main it builds.
func TestTierPromoteRoundTrip(t *testing.T) {
	e := parityEngine(t)
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 1024, ChunkRows: 128, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const q = `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`
	want := resultKeys(mustExec(t, e, q))

	entry := e.Cat.MustTable("orders")
	if _, err := store.DemoteTable(entry, e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	if got := resultKeys(mustExec(t, e, q)); !reflect.DeepEqual(got, want) {
		t.Fatal("warm scan differs from hot scan")
	}

	// New writes land in the hot delta on top of the paged main.
	mustExec(t, e, `INSERT INTO orders VALUES (9001, 'EMEA', 'OPEN', 10.5, 2015)`)
	r := mustExec(t, e, `SELECT COUNT(*) FROM orders WHERE id = 9001`)
	if r.Rows[0][0].I != 1 {
		t.Fatal("delta row over warm main not visible")
	}

	if err := store.Promote(entry.Partitions[0], e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	if entry.Partitions[0].Tier() != catalog.TierHot {
		t.Fatalf("tier after promote: %s", entry.Partitions[0].Tier())
	}

	// Demote again, then re-hydrate through plain SQL MERGE: the merge
	// rebuilds the main store in memory without store involvement.
	if _, err := store.DemoteTable(entry, e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO orders VALUES (9002, 'APJ', 'OPEN', 1.0, 2015)`)
	mustExec(t, e, `MERGE DELTA OF orders`)
	p := entry.Partitions[0]
	if p.Tier() != catalog.TierHot {
		t.Fatalf("tier after MERGE DELTA: %s", p.Tier())
	}
	if z := p.Table.Synopsis(); z == nil || len(z.Cols) != 5 || z.Cols[0].Count != p.Table.MainRows() {
		t.Fatalf("synopsis after re-hydration: %+v", z)
	}
}

// TestNoSleepOnTheQueryPath: what a cold tier costs a statement is the
// pages it faults, counted, not a clock. No non-test file of this package
// calls time.Sleep.
func TestNoSleepOnTheQueryPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		goast.Inspect(f, func(n goast.Node) bool {
			if sel, ok := n.(*goast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if x, ok := sel.X.(*goast.Ident); ok && x.Name == timePkg {
					t.Errorf("%s: %s.Sleep on the query path", fset.Position(sel.Pos()), timePkg)
				}
			}
			return true
		})
	}
}
