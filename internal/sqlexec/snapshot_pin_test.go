package sqlexec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// An auto-commit statement pins the timestamp it reads at from before it is
// planned until its sink has the last batch. These tests open the gap
// between "the statement has its timestamp" and "the executor captures its
// snapshots" deterministically: the engine's Prune hook runs exactly there,
// as the run's scan opens.

// pinFixture is a 64-row merged table t(k, v).
func pinFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustQuery("CREATE TABLE t (k INT, v INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i)
	}
	e.MustQuery(b.String())
	e.MustQuery("MERGE DELTA OF t")
	return e
}

// inTheGap installs a Prune hook that runs fn once, the first time a scan
// of t is planned.
func inTheGap(e *Engine, fn func(entry *catalog.TableEntry)) {
	fired := false
	e.Prune = func(entry *catalog.TableEntry, _ []Pred, parts []*catalog.Partition) []*catalog.Partition {
		if !fired && entry.Name == "t" {
			fired = true
			fn(entry)
		}
		return parts
	}
}

// TestAutoCommitSelectSeesItsSnapshotAcrossCommitAndMerge is ROADMAP item
// 1's second bug without goroutine luck: an UPDATE commits and a merge runs
// between the statement's timestamp and its snapshot. Unpinned, the merge's
// watermark is the new clock, the version the statement should see is
// compacted and the one that replaced it is too new: COUNT(*) = 63 of 64.
func TestAutoCommitSelectSeesItsSnapshotAcrossCommitAndMerge(t *testing.T) {
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e := pinFixture(t)
		e.Mode = mode
		inTheGap(e, func(entry *catalog.TableEntry) {
			e.MustQuery("UPDATE t SET v = v + 100 WHERE k = 7")
			e.Mgr.MergeNow(entry.Primary())
		})
		res := e.MustQuery("SELECT COUNT(*), SUM(v) FROM t")
		if got, want := res.Rows[0][0].AsInt(), int64(64); got != want {
			t.Errorf("mode %v: COUNT(*) = %d, want %d: the merge compacted a version the statement sees", mode, got, want)
		}
		// The statement's timestamp precedes the UPDATE: it sums the old v.
		if got, want := res.Rows[0][1].AsInt(), int64(64*63/2); got != want {
			t.Errorf("mode %v: SUM(v) = %d, want %d", mode, got, want)
		}
		// The next statement sees the update, and the pin is gone.
		if got, want := e.MustQuery("SELECT SUM(v) FROM t").Rows[0][0].AsInt(), int64(64*63/2+100); got != want {
			t.Errorf("mode %v: SUM(v) afterwards = %d, want %d", mode, got, want)
		}
		if min, now := e.Mgr.MinActiveTS(), e.Mgr.Now(); min != now {
			t.Errorf("mode %v: MinActiveTS %d behind the clock %d: a finished statement left its pin", mode, min, now)
		}
	}
}

// failingSink fails, or panics, on its first batch.
type failingSink struct{ panics bool }

func (failingSink) Header([]Column) error { return nil }
func (f failingSink) Batch(*RowBatch) error {
	if f.panics {
		panic("sink: client went away")
	}
	return errors.New("sink: client went away")
}

// TestStatementUnpinsOnEveryExit: a plan error, a sink error and a sink
// panic all release the statement's pin, as do auto-commit UPDATE and DELETE
// (their one-statement transaction is the pin). A pin left behind would hold
// MinActiveTS — and with it every merge's watermark — at that statement for
// the life of the process.
func TestStatementUnpinsOnEveryExit(t *testing.T) {
	e := pinFixture(t)
	s := e.NewSession()
	defer s.Close()
	exits := []struct {
		name string
		run  func()
	}{
		{"plan error", func() {
			if _, err := s.Query("SELECT nope FROM t"); err == nil {
				t.Error("unknown column planned")
			}
		}},
		{"sink error", func() {
			if _, err := queryTo(s, failingSink{}, "SELECT k FROM t"); err == nil {
				t.Error("sink error swallowed")
			}
		}},
		{"sink panic", func() {
			// One morsel, so the scan runs on the statement's goroutine and
			// the panic unwinds through execSelect (with more, the worker
			// pool is torn down under its dispatcher and the process dies
			// of that first — no caller recovers a sink panic anyway).
			e.MustQuery("MERGE DELTA OF t")
			defer func() {
				if recover() == nil {
					t.Error("sink panic swallowed")
				}
			}()
			queryTo(s, failingSink{panics: true}, "SELECT k FROM t")
		}},
		{"update", func() { e.MustQuery("UPDATE t SET v = 0 WHERE k = 1") }},
		{"update error", func() {
			if _, err := s.Query("UPDATE t SET nope = 0 WHERE k = 1"); err == nil {
				t.Error("unknown column updated")
			}
		}},
		{"delete", func() { e.MustQuery("DELETE FROM t WHERE k = 2") }},
		{"select", func() { e.MustQuery("SELECT COUNT(*) FROM t") }},
	}
	for _, x := range exits {
		x.run()
		// Move the clock past whatever the statement read at.
		e.MustQuery("INSERT INTO t VALUES (1000, 0)")
		if min, now := e.Mgr.MinActiveTS(), e.Mgr.Now(); min != now {
			t.Fatalf("after %s: MinActiveTS %d behind the clock %d: the statement left its pin", x.name, min, now)
		}
	}
}
