package sqlexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/extstore"
	"repro/internal/value"
)

// TestZonePruneProperty is the synopsis pruning correctness property
// (quick.Check, matching the mergeDictionaries style): for randomized
// datasets and randomized int/string predicates, a scan over merged
// partitions, hot and warm — where the planner prunes by each main's
// synopsis before it reads or faults any page — returns exactly the rows of
// the same rows left in the delta, which no synopsis can prune, and the hot
// and the warm scan prune the same partitions.
func TestZonePruneProperty(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	var pruned int64

	f := func(seed int64, kRaw int64, litSel, opSel, colSel uint8) bool {
		letters := []string{"alpha", "bravo", "charlie", "delta", "echo"}

		build := func(merge bool) *Engine {
			e := NewEngine()
			mustExec(t, e, `CREATE TABLE zt (pk INT, v INT, s VARCHAR) PARTITION BY RANGE(pk) VALUES (60, 120)`)
			sess := e.NewSession()
			defer sess.Close()
			sess.Begin()
			r2 := rand.New(rand.NewSource(seed)) // same rows in both engines
			for i := 0; i < 180; i++ {
				v := value.Int(int64(r2.Intn(101) - 50))
				s := value.String(letters[r2.Intn(len(letters))])
				if r2.Intn(23) == 0 {
					v = value.Null
				}
				if r2.Intn(19) == 0 {
					s = value.Null
				}
				if _, err := sess.Query(`INSERT INTO zt VALUES (?, ?, ?)`,
					value.Int(int64(i)), v, s); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Commit(); err != nil {
				t.Fatal(err)
			}
			if merge {
				mustExec(t, e, `MERGE DELTA OF zt`)
			}
			return e
		}

		delta := build(false)
		hot := build(true)
		warm := build(true)
		store, err := extstore.OpenTemp(extstore.Options{PageSize: 512, ChunkRows: 32, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if _, err := store.DemoteTable(warm.Cat.MustTable("zt"), warm.Mgr.MinActiveTS()); err != nil {
			t.Fatal(err)
		}

		op := ops[int(opSel)%len(ops)]
		var q string
		if colSel%2 == 0 {
			// Int predicate; widen k beyond the data range sometimes so
			// whole-table prunes happen too.
			k := kRaw%80 - 40
			if kRaw%7 == 0 {
				k = kRaw % 1000
			}
			q = fmt.Sprintf(`SELECT pk, v, s FROM zt WHERE v %s %d ORDER BY pk`, op, k)
		} else {
			lits := append(letters, "aaa", "zzz") // out-of-range literals prune everything
			q = fmt.Sprintf(`SELECT pk, v, s FROM zt WHERE s %s '%s' ORDER BY pk`, op, lits[int(litSel)%len(lits)])
		}

		delta.Mode = ModeInterpreted
		ref := mustExec(t, delta, q)
		if ref.Stats.PartitionsPruned != 0 {
			t.Logf("%s: a delta-only table pruned %d partitions", q, ref.Stats.PartitionsPruned)
			return false
		}
		want := resultKeys(ref)
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			hot.Mode, warm.Mode = mode, mode
			h, w := mustExec(t, hot, q), mustExec(t, warm, q)
			for _, got := range []*Result{h, w} {
				if keys := resultKeys(got); !reflect.DeepEqual(keys, want) {
					t.Logf("%s: mode=%d pruned scan %d rows, unpruned delta scan %d rows", q, mode, len(keys), len(want))
					return false
				}
			}
			if h.Stats.PartitionsPruned != w.Stats.PartitionsPruned {
				t.Logf("%s: mode=%d hot pruned %d partitions, warm %d", q, mode, h.Stats.PartitionsPruned, w.Stats.PartitionsPruned)
				return false
			}
			pruned += int64(w.Stats.PartitionsPruned)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("zone pruning never fired across the property run")
	}
}

// TestBindTimePruning: a parameter predicate is refuted against range
// bounds and zone maps when a run copies the parameter in, so the literal
// and the parameter spelling of a filter open the same partitions and fault
// the same pages of a demoted, range-partitioned table — on both executors.
func TestBindTimePruning(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE tiered (d INT, v INT, s VARCHAR) PARTITION BY RANGE(d) VALUES (100, 200, 300)`)
	sess := e.NewSession()
	sess.Begin()
	for i := 0; i < 400; i++ {
		// v is low in the first two partitions and high in the last two, so
		// a predicate on it is one only the zone maps can refute.
		if _, err := sess.Query(`INSERT INTO tiered VALUES (?, ?, ?)`,
			value.Int(int64(i)), value.Int(int64(i/200*1000+i%7)), value.String(fmt.Sprintf("s%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	mustExec(t, e, `MERGE DELTA OF tiered`)
	// Pages so small that every chunk spans several: a budget of one page
	// then empties the pool, and every run starts from that — what it
	// faults is what it reads.
	const budget = 1 << 16
	store, err := extstore.OpenTemp(extstore.Options{PageSize: 16, ChunkRows: 32, PoolPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.DemoteTable(e.Cat.MustTable("tiered"), e.Mgr.MinActiveTS()); err != nil {
		t.Fatal(err)
	}
	cold := func(sql string, params ...value.Value) *Result {
		t.Helper()
		for n := 0; store.Pool().ResidentPages > 0; n++ {
			if n == 100 {
				t.Fatalf("pool still holds %d pages", store.Pool().ResidentPages)
			}
			store.SetPoolBudget(1)
		}
		store.SetPoolBudget(budget)
		return mustExec(t, e, sql, params...)
	}
	e.Workers = 1
	for _, tc := range []struct {
		literal, param string
		params         []value.Value
		scanned        int
	}{
		{`SELECT SUM(v) FROM tiered WHERE d >= 300`, `SELECT SUM(v) FROM tiered WHERE d >= $1`, []value.Value{value.Int(300)}, 1},
		{`SELECT s FROM tiered WHERE d BETWEEN 120 AND 180`, `SELECT s FROM tiered WHERE d BETWEEN $1 AND $2`, []value.Value{value.Int(120), value.Int(180)}, 1},
		{`SELECT s FROM tiered WHERE 99.5 > d`, `SELECT s FROM tiered WHERE $1 > d`, []value.Value{value.Float(99.5)}, 1},
		{`SELECT COUNT(*) FROM tiered WHERE v > 500`, `SELECT COUNT(*) FROM tiered WHERE v > $1`, []value.Value{value.Int(500)}, 2},
		{`SELECT COUNT(*) FROM tiered WHERE v > 500 AND d < 300`, `SELECT COUNT(*) FROM tiered WHERE v > $1 AND d < $2`, []value.Value{value.Int(500), value.Int(300)}, 1},
		{`SELECT COUNT(*) FROM tiered WHERE s = 'nope'`, `SELECT COUNT(*) FROM tiered WHERE s = $1`, []value.Value{value.String("nope")}, 0},
	} {
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			e.Mode = mode
			lit := cold(tc.literal)
			got := cold(tc.param, tc.params...)
			if !reflect.DeepEqual(resultKeys(got), resultKeys(lit)) {
				t.Errorf("%v: %s: rows differ from the literal spelling's", mode, tc.param)
			}
			ls, gs := lit.Stats, got.Stats
			if ls.PartitionsScanned != tc.scanned || ls.PartitionsPruned != 4-tc.scanned {
				t.Errorf("%v: %s: scanned %d, pruned %d, want %d of 4 scanned", mode, tc.literal, ls.PartitionsScanned, ls.PartitionsPruned, tc.scanned)
			}
			if gs.PartitionsScanned != ls.PartitionsScanned || gs.PartitionsPruned != ls.PartitionsPruned || gs.PageFaults != ls.PageFaults {
				t.Errorf("%v: %s: scanned %d, pruned %d, faulted %d pages; the literal spelling %d, %d, %d", mode, tc.param,
					gs.PartitionsScanned, gs.PartitionsPruned, gs.PageFaults, ls.PartitionsScanned, ls.PartitionsPruned, ls.PageFaults)
			}
		}
	}
	// An unbound-as-NULL parameter refutes nothing and matches nothing.
	if r := mustExec(t, e, `SELECT COUNT(*) FROM tiered WHERE d >= $1`, value.Null); r.Rows[0][0].I != 0 || r.Stats.PartitionsPruned != 0 {
		t.Fatalf("NULL parameter: count %v, pruned %d", r.Rows[0][0], r.Stats.PartitionsPruned)
	}
}

// TestOneClassificationAndHookCallPerScan counts through the hook: however
// many conjuncts are pushed into a scan, its hooks — the session's Scope
// and the engine's Prune — are called once per scan per execution, with
// the complete predicate list of the scan's final filter.
func TestOneClassificationAndHookCallPerScan(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE a (id INT, x INT, y INT) PARTITION BY RANGE(id) VALUES (10, 20)`)
	mustExec(t, e, `CREATE TABLE b (id INT, z INT)`)
	type call struct {
		table string
		preds int
	}
	var engineCalls, scopeCalls []call
	record := func(into *[]call) PruneHook {
		return func(entry *catalog.TableEntry, preds []Pred, parts []*catalog.Partition) []*catalog.Partition {
			*into = append(*into, call{entry.Name, len(preds)})
			return parts
		}
	}
	e.Prune = record(&engineCalls)
	s := e.NewSession()
	defer s.Close()
	s.Scope = record(&scopeCalls)
	for _, tc := range []struct {
		sql  string
		want []call
	}{
		{`SELECT id FROM a`, []call{{"a", 0}}},
		{`SELECT id FROM a WHERE id >= 5`, []call{{"a", 1}}},
		{`SELECT id FROM a WHERE id >= 5 AND id < 15`, []call{{"a", 2}}},
		{`SELECT id FROM a WHERE id >= 5 AND 15 > id AND x = $1`, []call{{"a", 3}}},
		{`SELECT id FROM a WHERE id BETWEEN 5 AND 15 AND x + y = 3`, []call{{"a", 2}}},
		{`SELECT a.id FROM a JOIN b ON a.id = b.id WHERE a.x > 1 AND b.z < 4 AND a.y = 2`, []call{{"a", 2}, {"b", 1}}},
		{`SELECT q.id FROM (SELECT id FROM a WHERE x = 1) q JOIN b ON q.id = b.id WHERE b.z = 2`, []call{{"a", 1}, {"b", 1}}},
	} {
		engineCalls, scopeCalls = nil, nil
		st, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if _, err := st.Exec(value.Int(1)); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		for name, got := range map[string][]call{"Engine.Prune": engineCalls, "Session.Scope": scopeCalls} {
			sort.Slice(got, func(i, j int) bool { return got[i].table < got[j].table })
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: %s saw (table, predicates) %v, want %v", tc.sql, name, got, tc.want)
			}
		}
	}
	// UPDATE and DELETE plan their victim scan the same way.
	for _, sql := range []string{`DELETE FROM a WHERE id >= 5 AND id < 15`, `UPDATE a SET x = 1 WHERE id >= 5 AND id < 15`} {
		engineCalls, scopeCalls = nil, nil
		if _, err := s.Query(sql); err != nil {
			t.Fatal(err)
		}
		if want := []call{{"a", 2}}; !reflect.DeepEqual(engineCalls, want) || !reflect.DeepEqual(scopeCalls, want) {
			t.Errorf("%s: Engine.Prune saw %v, Session.Scope %v, want %v", sql, engineCalls, scopeCalls, want)
		}
	}
}
