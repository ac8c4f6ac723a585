package sqlexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/extstore"
	"repro/internal/value"
)

// TestZonePruneProperty is the zone-map pruning correctness property
// (quick.Check, matching the mergeDictionaries style): for randomized
// datasets and randomized int/string predicates, a scan over warm
// partitions — where the planner prunes via zone maps before any page
// fault — returns exactly the rows of the unpruned all-hot scan.
func TestZonePruneProperty(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	var pruned int64

	f := func(seed int64, kRaw int64, litSel, opSel, colSel uint8) bool {
		letters := []string{"alpha", "bravo", "charlie", "delta", "echo"}

		build := func() *Engine {
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
			mustExec(t, e, `MERGE DELTA OF zt`)
			return e
		}

		hot := build()
		warm := build()
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

		hot.Mode = ModeInterpreted
		want := resultKeys(mustExec(t, hot, q))
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			warm.Mode = mode
			got := mustExec(t, warm, q)
			if keys := resultKeys(got); !reflect.DeepEqual(keys, want) {
				t.Logf("%s: mode=%d pruned warm scan %d rows, unpruned hot scan %d rows", q, mode, len(keys), len(want))
				return false
			}
			pruned += int64(got.Stats.PartitionsPruned)
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
