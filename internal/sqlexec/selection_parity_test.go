package sqlexec

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/value"
)

// This file is the selection-form parity suite. A morsel's selection is a
// range until a predicate or an invisible row says otherwise, and every
// operator below the scan takes either form; what it must not do is
// answer differently, or count differently, because of the form. So the
// whole parity catalog, the flat-overflow grouping shapes, the parameter
// twins and a set of shapes chosen for the forms themselves run over the
// parity dataset laid out so that morsels are all visible (dense) or have
// every 7th row deleted (sparse by visibility), in encoded main storage,
// in the delta and on the warm tier. Rows must equal the interpreted
// executor's bit for bit. The scan, kernel and late-materialization
// counters — ExecStats and the per-operator EXPLAIN ANALYZE ones — must
// equal those recorded from the commit before selections had forms
// (testdata/selection_parity.golden, written there by this same file:
// `go test -run TestSelectionFormParity -update`).

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

const selectionGolden = "testdata/selection_parity.golden"

// selectionQueries are the shapes chosen for the forms: per consumer of a
// scan, a residual that accepts every row (the range survives it), none,
// or some (the range becomes a vector at the first rejection); kernels
// that thin a morsel and kernels that keep all of it; a kernel under a
// residual; and float sums over three morsels, folded per worker and
// merged.
var selectionQueries = []string{
	// Global and code-keyed folds under a residual: all / none / some.
	`SELECT COUNT(*), SUM(qty), MIN(qty) FROM events WHERE qty + 0 >= 0`,
	`SELECT COUNT(*), SUM(qty) FROM events WHERE qty % 2 = 5`,
	`SELECT COUNT(*), SUM(qty), MAX(qty) FROM events WHERE qty % 3 = 1`,
	`SELECT region, COUNT(*), SUM(qty) FROM events WHERE qty % 1 = 0 GROUP BY region`,
	`SELECT region, COUNT(*), SUM(qty) FROM events WHERE qty % 2 = 5 GROUP BY region`,
	`SELECT region, COUNT(*), SUM(qty) FROM events WHERE qty % 3 = 1 GROUP BY region`,
	// Run folding needs a range over encoded storage: a residual that
	// accepts everything keeps it, one rejection loses it.
	`SELECT grp, COUNT(*), SUM(qty), SUM(status) FROM events WHERE qty * 0 = 0 GROUP BY grp`,
	`SELECT grp, COUNT(*), SUM(qty), SUM(status) FROM events WHERE qty % 3 <> 1 GROUP BY grp`,
	`SELECT COUNT(*), SUM(status), SUM(grp) FROM events WHERE qty + 0 >= 0`,
	// Kernels that keep every row of a morsel, alone and under a residual.
	`SELECT grp, COUNT(*), SUM(qty) FROM events WHERE qty >= 0 GROUP BY grp`,
	`SELECT COUNT(*), SUM(qty) FROM events WHERE grp >= 0 AND qty >= 0`,
	`SELECT status, COUNT(*) FROM events WHERE qty >= 0 AND qty % 1 = 0 GROUP BY status`,
	// Kernels that thin it, alone and under a residual.
	`SELECT qty, COUNT(*) FROM events WHERE grp = 3 GROUP BY qty`,
	`SELECT region, COUNT(*) FROM events WHERE qty > 100 AND qty % 2 = 0 GROUP BY region`,
	`SELECT region, COUNT(*) FROM events WHERE qty > 8000 AND qty < 8100 AND grp <> 1 GROUP BY region`,
	// Plain scan, fused projection and the general aggregate.
	`SELECT * FROM events WHERE qty % 1000 = 7`,
	`SELECT * FROM events WHERE qty + 0 >= 0 AND grp = 7`,
	`SELECT grp, qty FROM events WHERE qty % 2 = 5`,
	`SELECT qty, region FROM events WHERE qty * 0 = 0 AND status = 2`,
	`SELECT grp + status, COUNT(*), SUM(qty) FROM events WHERE qty % 1 = 0 GROUP BY grp + status`,
	`SELECT grp + status, COUNT(*) FROM events WHERE qty % 3 = 1 GROUP BY grp + status`,
	// The code join's probe, row sink and fused aggregate.
	`SELECT d.dname, COUNT(*), SUM(e.qty) FROM events e JOIN dims d ON e.region = d.region WHERE e.qty + 0 >= 0 GROUP BY d.dname`,
	`SELECT d.dname, COUNT(*), SUM(e.qty) FROM events e JOIN dims d ON e.region = d.region WHERE e.qty % 3 = 1 GROUP BY d.dname`,
	`SELECT d.dname, COUNT(*) FROM events e LEFT JOIN dims d ON e.region = d.region WHERE e.qty >= 0 GROUP BY d.dname`,
	`SELECT e.qty, d.dname FROM events e JOIN dims d ON e.region = d.region WHERE e.qty % 1000 = 7`,
	`SELECT e.qty, d.dname FROM events e JOIN dims d ON e.region = d.region WHERE e.qty * 0 = 0 AND e.grp = 5`,
	// Float sums over three morsels: exact partial sums, merged.
	`SELECT site, COUNT(*), SUM(temp), AVG(temp) FROM readings GROUP BY site`,
	`SELECT site, SUM(temp), COUNT(temp) FROM readings WHERE seq + 0 >= 0 GROUP BY site`,
	`SELECT site, SUM(temp) FROM readings WHERE seq % 3 = 1 GROUP BY site`,
	`SELECT site, SUM(temp) FROM readings WHERE seq % 2 = 5 GROUP BY site`,
	`SELECT site, SUM(temp), AVG(temp) FROM readings WHERE seq > 20000 GROUP BY site`,
	`SELECT site, SUM(temp) FROM readings WHERE seq >= 0 GROUP BY site`,
	`SELECT SUM(temp), AVG(temp), COUNT(*) FROM readings WHERE temp > 0`,
	`SELECT SUM(temp), AVG(temp) FROM readings WHERE seq % 7 <> 0`,
	`SELECT id, temp FROM readings WHERE seq % 5000 = 1`,
}

// flatOverflowQueries are the grouping shapes rerun with the flat-array
// group cutoff forced to 2.
var flatOverflowQueries = []string{
	`SELECT grp, COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM events GROUP BY grp`,
	`SELECT status, COUNT(*), SUM(qty) FROM events GROUP BY status`,
	`SELECT region, COUNT(*), SUM(qty) FROM events GROUP BY region`,
	`SELECT qty, COUNT(*) FROM events GROUP BY qty`,
	`SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) > 50`,
}

// counter is one named count of a signature; zero counts are left out.
type counter struct {
	name string
	v    int64
}

func writeCounters(sb *strings.Builder, cs ...counter) {
	for _, c := range cs {
		if c.v != 0 {
			fmt.Fprintf(sb, " %s=%d", c.name, c.v)
		}
	}
}

// statsSig renders the counters of ExecStats that describe the scan and
// late materialization; clocks and page faults are left out.
func statsSig(s ExecStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "parts=%d/%d", s.PartitionsScanned, s.PartitionsPruned)
	writeCounters(&sb, counter{"scanned", int64(s.RowsScanned)}, counter{"out", int64(s.RowsOut)}, counter{"morsels", int64(s.Morsels)},
		counter{"khit", int64(s.KernelHits)}, counter{"kfall", int64(s.KernelFallbacks)}, counter{"codes", int64(s.CodesJoined)},
		counter{"runs", int64(s.RunsFolded)}, counter{"bfused", int64(s.BatchesFused)}, counter{"avoided", int64(s.DecodeBytesAvoided)})
	return sb.String()
}

// profileSig renders the same counters as EXPLAIN ANALYZE attributes them,
// operator by operator in plan order.
func profileSig(p *Profile) string {
	var sb strings.Builder
	var walk func(o *OpProfile)
	walk = func(o *OpProfile) {
		fmt.Fprintf(&sb, " [%s", strings.Fields(o.Label)[0])
		if o.fused {
			sb.WriteString(" fused")
		}
		st := &o.stats
		writeCounters(&sb, counter{"out", o.rowsOut.Load()}, counter{"scanned", int64(st.RowsScanned)}, counter{"morsels", int64(st.Morsels)},
			counter{"khit", int64(st.KernelHits)}, counter{"kfall", int64(st.KernelFallbacks)},
			counter{"build", o.buildRows.Load()}, counter{"probe", o.probeRows.Load()}, counter{"codes", int64(st.CodesJoined)},
			counter{"runs", int64(st.RunsFolded)}, counter{"bfused", int64(st.BatchesFused)}, counter{"avoided", int64(st.DecodeBytesAvoided)})
		sb.WriteString("]")
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return sb.String()
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (record it on the reference commit with -update)", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), "\t"); ok {
			golden[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func writeGolden(t *testing.T, path string, golden map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s\t%s\n", k, golden[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionFormParity(t *testing.T) {
	type query struct {
		sql    string
		params []value.Value
	}
	var catalog, chosen []query
	for _, q := range parityQueries {
		catalog = append(catalog, query{q.sql, q.params})
	}
	for _, sql := range selectionQueries {
		chosen = append(chosen, query{sql: sql})
	}
	twins := paramTwins(t)

	var golden map[string]string
	if *updateGolden {
		golden = map[string]string{}
	} else {
		golden = readGolden(t, selectionGolden)
	}
	seen := 0

	// No holes and every 7th row deleted, on each of main, delta and warm;
	// then the classic arrangement, which the four parity suites already
	// run the catalog on, for the chosen shapes only.
	var layouts []parityLayout
	for _, holes := range []int{-1, 7} {
		for _, store := range []string{"main", "delta", "warm"} {
			layouts = append(layouts, parityLayout{store: store, holes: holes})
		}
	}
	layouts = append(layouts, parityLayout{})
	refs := map[int]map[string][]string{} // holes → sql → the interpreted executor's rows
	for _, lay := range layouts {
		name := lay.String()
		e := parityEngineLaidOut(t, lay)
		queries := chosen
		if lay != (parityLayout{}) {
			queries = append(catalog[:len(catalog):len(catalog)], chosen...)
		}
		// Layouts that share their holes share their rows: the reference is
		// the interpreted executor on the first (hot) one.
		ref := refs[lay.holes]
		if ref == nil {
			ref = map[string][]string{}
			refs[lay.holes] = ref
			e.Mode = ModeInterpreted
			for _, q := range queries {
				ref[q.sql] = rowBits(mustExec(t, e, q.sql, q.params...))
			}
		}
		e.Mode = ModeVectorized
		for i, q := range queries {
			e.Workers = []int{1, 3, 8}[i%3]
			res, prof, err := e.AnalyzeSQL(q.sql, q.params...)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q.sql, err)
			}
			if got, want := rowBits(res), ref[q.sql]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: vectorized(workers=%d) differs from interpreted (%d vs %d rows)", name, q.sql, e.Workers, len(got), len(want))
			}
			if strings.Contains(q.sql, "LIMIT") && !strings.Contains(q.sql, "ORDER BY") {
				// A LIMIT straight over a scan stops it early: how many morsels
				// had already run by then is the scheduler's business.
				continue
			}
			key, sig := name+" | "+q.sql, statsSig(res.Stats)+" |"+profileSig(prof)
			if *updateGolden {
				golden[key] = sig
			} else if want, ok := golden[key]; !ok {
				t.Errorf("%s: no recorded counters", key)
			} else if sig != want {
				t.Errorf("%s: counters moved:\n  got %s\n want %s", key, sig, want)
			}
			seen++
		}
		if lay == (parityLayout{}) {
			continue
		}

		// A parameter twin answers like its literal original and, when it
		// scans the same partitions (a literal also prunes at plan time),
		// counts like it.
		e.Workers = 3
		for _, q := range twins {
			got := mustExec(t, e, q.param, q.params...)
			if !reflect.DeepEqual(rowBits(got), ref[q.literal]) {
				t.Errorf("%s: %s: parameter form differs from the literal form's interpreted rows", name, q.param)
			}
			lit, _, _ := strings.Cut(golden[name+" | "+q.literal], " |")
			if sig := statsSig(got.Stats); sig != lit && strings.HasPrefix(lit, fmt.Sprintf("parts=%d/", got.Stats.PartitionsScanned)) {
				t.Errorf("%s: %s: counters differ from the literal twin's:\n param   %s\n literal %s", name, q.param, sig, lit)
			}
		}

		// The flat-array cutoff forced to 2: flat and overflow groups merge
		// into the same rows whatever form fed them.
		old := vecFlatGroupCutoff
		vecFlatGroupCutoff = 2
		for _, sql := range flatOverflowQueries {
			if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, ref[sql]) {
				t.Errorf("%s: %s: vectorized(cutoff=2) differs from interpreted", name, sql)
			}
		}
		vecFlatGroupCutoff = old
	}
	if *updateGolden {
		writeGolden(t, selectionGolden, golden)
		t.Logf("wrote %d entries to %s", len(golden), selectionGolden)
	} else if seen != len(golden) {
		t.Errorf("%d recorded entries, %d checked", len(golden), seen)
	}
}
