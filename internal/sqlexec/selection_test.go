package sqlexec

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// This file holds the scan scratch to its lending contract — every scratch
// taken from the pool is returned exactly once, whoever ends up owning it —
// and the pipeline to its steady state: a statement over morsels that are
// all visible and unfiltered allocates no selection, key or scratch memory
// at all once one statement has warmed the pool.

// countScratch hooks e's scratch pool to book every run state and scratch
// it lends and every one returned, and returns a check to run between
// statements: nothing may be outstanding, nothing may ever have been out
// twice at once or returned without having been taken, and the idle pool
// may pin nothing of the statements that ran (poolPins). The check returns
// how many scratches were taken since the last.
func countScratch(t *testing.T, e *Engine) (check func(label string) (takes int)) {
	var mu sync.Mutex
	out := map[any]int{}
	var takes, puts, borrows, returns int
	var broken []string
	e.scratch.hook = func(x any, delta int) {
		mu.Lock()
		defer mu.Unlock()
		out[x] += delta
		_, scratch := x.(*scanScratch)
		switch {
		case scratch && delta > 0:
			takes++
		case scratch:
			puts++
		case delta > 0:
			borrows++
		default:
			returns++
		}
		if out[x] != 0 && out[x] != 1 {
			broken = append(broken, fmt.Sprintf("a %T is out %d times", x, out[x]))
		}
	}
	return func(label string) int {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, msg := range broken {
			t.Errorf("%s: %s", label, msg)
		}
		for x, n := range out {
			if n != 0 {
				t.Errorf("%s: a %T was lent and never returned", label, x)
			}
		}
		if takes != puts {
			t.Errorf("%s: %d scratch takes, %d puts", label, takes, puts)
		}
		if borrows != returns {
			t.Errorf("%s: %d run states borrowed, %d returned", label, borrows, returns)
		}
		for _, pin := range poolPins(&e.scratch) {
			t.Errorf("%s: the idle pool pins %s", label, pin)
		}
		n := takes
		broken, takes, puts, borrows, returns = nil, 0, 0, 0, 0
		return n
	}
}

// poolPins lists what an idle pool still holds of the statements that ran
// on it: parameters, a sink or stats, a plan or compiled code, a snapshot's
// view, readers, kernels and their literals, morsels, a scan's folds,
// hand-off windows, rows in a scratch, and in the folds it keeps groups,
// keys, accumulators, DISTINCT seen-sets and interned strings. Capacity is
// all it may keep.
func poolPins(p *scratchPool) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pins []string
	pin := func(held bool, what string) {
		if held && !slices.Contains(pins, what) {
			pins = append(pins, what)
		}
	}
	for _, c := range p.runs {
		pin(c.params != nil || c.stats != nil || c.out != nil || c.prof != nil, "a statement's parameters, sink or stats")
		pin(c.hooks.scope != nil || c.hooks.engine != nil || c.state != nil || c.replies != nil, "a statement's prune hooks, fold state or replies")
		pin(c.nscans != 0, "scans lent to no statement")
		for _, r := range c.scans {
			pin(r.ctx == nil, "a scan of no ctx")
			pin(r.plan != nil || r.zone != nil, "a scan's plan or filter")
			pin(r.fused != nil || r.to != nil || r.victims != nil || r.join != nil || r.op != nil,
				"what a scan's exit was handed")
			pin(len(r.scratch) != 0, "a scan's runner scratch")
			for _, x := range r.binding.preds[:cap(r.binding.preds)] {
				pin(x != (Pred{}), "a bound predicate")
			}
			for _, x := range r.binding.parts[:cap(r.binding.parts)] {
				pin(x != nil, "a partition a run kept")
			}
			for _, x := range r.tasks[:cap(r.tasks)] {
				pin(x.part != nil || x.snap != nil || x.kernels != nil || x.readers != nil, "a morsel")
			}
			for _, x := range r.readers[:cap(r.readers)] {
				pin(x.main != nil || x.ints != nil || x.floats != nil || x.delta != nil, "a column reader")
			}
			for _, x := range r.kernels[:cap(r.kernels)] {
				pin(x.lit != value.Null || x.ints != nil || x.floats != nil || x.strs != nil || x.vals != nil, "a kernel or its literal")
			}
			for i := range r.snaps[:cap(r.snaps)] {
				snap := &r.snaps[:cap(r.snaps)][i]
				pin(snap.NumRows() != 0 || snap.MainColumn(0) != nil || snap.DeltaColumn(0) != nil || snap.Schema() != nil, "a snapshot's view")
			}
			for _, f := range r.folds[:cap(r.folds)] {
				pin(f != nil, "a fold")
			}
			for _, sl := range r.par.slots[:cap(r.par.slots)] {
				for _, v := range sl.vals {
					pin(v.t != nil || v.rows != nil || v.sel.pos != nil, "a hand-off window")
				}
			}
			pin(r.par.failure != nil, "a recovered panic")
		}
		pin(c.nops != 0, "operators lent to no statement")
		for _, r := range c.ops {
			pin(r.ctx != nil || r.node != nil || r.out != nil || r.prof != nil, "an operator's plan, sink or profile")
			pin(r.env[0].Row != nil || r.env[0].Params != nil || r.env[1].Row != nil || r.env[1].Params != nil || r.rows != nil || r.fold != nil || len(r.seen) != 0, "what an operator read, kept or folded")
			pin(r.zone.in != nil, "a zone fold's aggregation")
			for _, a := range r.zone.accs[:cap(r.zone.accs)] {
				pin(a.count != 0 || a.min != value.Null || a.max != value.Null, "a zone fold's value")
			}
			j := &r.join
			pin(j.x != nil || j.r != nil || j.prep != nil, "a join's plan or runs")
			pin(len(j.strIDs) != 0 || len(j.intIDs) != 0 || len(j.oddIDs) != 0, "a join's build keys")
			for _, l := range j.lists[:cap(j.lists)] {
				for _, row := range l[:cap(l)] {
					pin(row != nil, "a join's build row")
				}
			}
			for _, v := range j.key.row[:cap(j.key.row)] {
				pin(v != value.Null, "a value in a join's key")
			}
			for _, o := range j.outs[:cap(j.outs)] {
				pin(o.j != nil || o.to != nil || o.in != nil || o.t != nil || o.prev != nil || o.env.Params != nil || o.slab.spare != nil || o.rows != nil, "a join's output")
			}
			pin(cap(j.lists) > vecFlatGroupCutoff || cap(r.key) > 64*vecFlatGroupCutoff || cap(r.texts) > 64*vecFlatGroupCutoff, "an operator's buffer past its bound")
		}
		for _, f := range c.folds[:cap(c.folds)] {
			pin(f != nil, "a fold lent to no statement")
		}
		for _, it := range c.interners[:cap(c.interners)] {
			pin(it != nil, "an interner lent to no statement")
		}
	}
	for _, f := range p.folds {
		pin(f.in != nil || f.interner != nil || f.env.Params != nil || f.env.Row != nil, "a fold's aggregation, interner or parameters")
		pin(f.t != nil || f.sel.pos != nil, "a fold's join morsel")
		pin(f.nullG != nil || f.global != nil || len(f.overflow) != 0 || len(f.keyed) != 0, "a fold's groups")
		for _, g := range append(f.flat[:cap(f.flat)], f.list[:cap(f.list)]...) {
			pin(g != nil, "a fold's groups")
		}
		for _, v := range append(f.key[:cap(f.key)], f.row[:cap(f.row)]...) {
			pin(v != value.Null, "a value in a fold's key or row")
		}
		for _, ch := range f.groupChunks.list {
			for i := range ch {
				pin(ch[i].key != nil || ch[i].accs != nil || ch[i].code != 0 || ch[i].first != 0, "a group in a fold's chunks")
			}
		}
		for _, ch := range f.accChunks.list {
			for i := range ch {
				pin(ch[i].seen != nil, "a DISTINCT seen-set")
				pin(ch[i].count != 0 || ch[i].sumI != 0 || !ch[i].sumF.emptied() || ch[i].min != value.Null || ch[i].max != value.Null, "an accumulator's value")
			}
		}
		for _, ch := range f.keyChunks.list {
			for _, v := range ch {
				pin(v != value.Null, "a value in a group's key row")
			}
		}
		pin(f.groupChunks.next != 0 || f.accChunks.next != 0 || f.keyChunks.next != 0, "chunks lent to no group")
	}
	for _, it := range p.interners {
		pin(len(it.ids) != 0 || len(it.vals) != 0, "an interned string")
		for _, s := range it.vals[:cap(it.vals)] {
			pin(s != "", "an interned string")
		}
	}
	for _, s := range p.free {
		pin(s.env.Params != nil, "a scratch's parameters")
		for _, v := range append(s.env.Row[:cap(s.env.Row)], s.key.row[:cap(s.key.row)]...) {
			pin(v != value.Null, "a value in a scratch row")
		}
	}
	return pins
}

// ownershipEngine builds a table of 40 one-morsel partitions: half in
// encoded main storage, half in the delta; three in four with every 7th
// row deleted (sparse by visibility), the rest untouched (dense). A query
// with the stall conjunct (stalled) stalls on every other partition, so
// with two or more workers the morsels finish out of order.
func ownershipEngine(t *testing.T) *Engine { return ownershipEngineRows(t, 300) }

// ownershipEngineRows is ownershipEngine with rowsPer rows in each of the
// 40 partitions: past BatchRows, a morsel leaves the scan as several
// windows.
func ownershipEngineRows(t *testing.T, rowsPer int) *Engine {
	t.Helper()
	const parts = 40
	bounds := make([]string, parts-1)
	for i := range bounds {
		bounds[i] = fmt.Sprint(i + 1)
	}
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (p INT, id INT, acct VARCHAR, bucket INT, amount DOUBLE) PARTITION BY RANGE(p) VALUES (`+strings.Join(bounds, ", ")+`)`)
	ent := e.Cat.MustTable("t")
	if len(ent.Partitions) != parts {
		t.Fatalf("%d partitions, want %d", len(ent.Partitions), parts)
	}
	for pi, part := range ent.Partitions {
		rows := make([]value.Row, rowsPer)
		for i := range rows {
			id := pi*rowsPer + i
			rows[i] = value.Row{value.Int(int64(pi)), value.Int(int64(id)), value.String(fmt.Sprintf("acct%d", (id*13)%11)),
				value.Int(int64(id % 7)), value.Float(mags[(id*7)%len(mags)] * float64(1+id%3))}
		}
		part.Table.ApplyInsert(rows, 1)
		if pi%2 == 0 {
			part.Table.Merge(1)
		}
		if pi%4 != 3 {
			for pos := 0; pos < rowsPer; pos += 7 {
				part.Table.ApplyDelete(pos, 2)
			}
		}
	}
	e.Mgr.AdvanceTo(2)
	// STALL(id) is id, 1.5 ms late on the second row — visible in every
	// partition — of each merged partition.
	e.Reg.RegisterScalar("STALL", func(a []value.Value) (value.Value, error) {
		if id := a[0].I; id%int64(rowsPer) == 1 && id/int64(rowsPer)%2 == 0 {
			time.Sleep(1500 * time.Microsecond)
		}
		return a[0], nil
	})
	return e
}

// stalled returns sql with a STALL conjunct in its WHERE, which slows every
// other partition's morsel down: a residual the scan evaluates after its
// kernels. It checks that the conjunct leaves the statement's kernels as
// they are.
func stalled(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	const conj = "stall(t.id) >= 0"
	out := strings.Replace(sql, " WHERE ", " WHERE "+conj+" AND ", 1)
	if out == sql {
		at := len(sql)
		for _, kw := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
			if i := strings.Index(sql, kw); i >= 0 && i < at {
				at = i
			}
		}
		out = sql[:at] + " WHERE " + conj + sql[at:]
	}
	mode := e.Mode
	e.Mode = ModeVectorized
	if want, got := mustExec(t, e, sql).Stats.KernelHits, mustExec(t, e, out).Stats.KernelHits; got != want {
		t.Fatalf("%s: %d kernel hits, %d without the stall", out, got, want)
	}
	e.Mode = mode
	return out
}

// TestScratchOwnership: a 40-morsel float GROUP BY whose workers finish out
// of order returns the interpreted executor's sums bit for bit, its folds
// borrow one scratch per worker and no more, and every scratch is returned
// exactly once. So is the scratch of every other consumer of a scan,
// including a scan a LIMIT stops early.
func TestScratchOwnership(t *testing.T) {
	e := ownershipEngine(t)
	folds := []string{
		`SELECT acct, SUM(amount), AVG(amount), COUNT(*) FROM t GROUP BY acct`,
		`SELECT bucket, SUM(amount) FROM t WHERE id % 3 <> 1 AND bucket <> 2 GROUP BY bucket`,
		`SELECT SUM(amount), AVG(amount) FROM t WHERE amount > 0`,
	}
	for i, sql := range folds {
		folds[i] = stalled(t, e, sql)
	}
	check := countScratch(t, e)

	for _, sql := range folds {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, sql))
		e.Mode = ModeVectorized
		for _, workers := range []int{1, 2, 4, 8} {
			e.Workers = workers
			for rep := 0; rep < 3; rep++ {
				if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: vectorized(workers=%d) is not bit-identical to interpreted:\n got %v\nwant %v", sql, workers, got, want)
				}
				if takes := check(fmt.Sprintf("%s (workers=%d)", sql, workers)); takes != workers {
					t.Errorf("%s (workers=%d): %d scratch takes, want %d", sql, workers, takes, workers)
				}
			}
		}
	}

	// Every other way a scan's morsels are run and ended.
	mustExec(t, e, `CREATE TABLE accts (acct VARCHAR, tier VARCHAR)`)
	mustExec(t, e, `INSERT INTO accts VALUES ('acct1', 'gold'), ('acct2', 'gold'), ('acct5', 'iron')`)
	e.Workers = 4
	others := []string{
		`SELECT id FROM t LIMIT 5`,
		`SELECT * FROM t WHERE bucket <> 3 LIMIT 7`,
		`SELECT id, amount FROM t WHERE id % 2 = 0 LIMIT 3`,
		`SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct LIMIT 4`,
		`SELECT * FROM t WHERE id % 50 = 1`,
		`SELECT id, amount FROM t WHERE bucket = 1`,
		`SELECT bucket, COUNT(*), SUM(id) FROM t GROUP BY bucket`,
		`SELECT bucket + 1, COUNT(*) FROM t WHERE id % 3 = 0 GROUP BY bucket + 1`,
		`SELECT a.tier, COUNT(*), SUM(t.amount) FROM t JOIN accts a ON t.acct = a.acct GROUP BY a.tier`,
		`SELECT t.id, a.tier FROM t JOIN accts a ON t.acct = a.acct WHERE t.id < 100`,
		`SELECT COUNT(*) FROM t WHERE id < 0`,
	}
	for i, sql := range others {
		others[i] = stalled(t, e, sql)
	}
	check("setup")
	for _, sql := range others {
		e.Mode = ModeInterpreted
		want := rowBits(mustExec(t, e, sql))
		e.Mode = ModeVectorized
		// Which rows a bare LIMIT keeps is defined: the first in scan order.
		if got := rowBits(mustExec(t, e, sql)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: vectorized differs from interpreted", sql)
		}
		if check(sql) == 0 {
			t.Errorf("%s: no scratch was taken: the scan did not run on morsels", sql)
		}
	}
}

// TestSteadyStateAllocatesNoSelection: after one warm-up statement, a
// GROUP BY and a global aggregate over morsels that are all visible and
// unfiltered allocate a few kilobytes of per-morsel bookkeeping and
// nothing that grows with the rows: no position vector (128 kB for one
// morsel), no key buffer, no scratch. The bound is one constant for a table
// and for the same table four times larger.
func TestSteadyStateAllocatesNoSelection(t *testing.T) {
	// Under one morsel's vector (128 kB), with room for per-morsel
	// bookkeeping at 49 morsels (32 kB measured).
	const maxBytes, maxAllocs = 96 << 10, 1200
	for _, c := range []struct {
		merged bool
		rows   int
	}{{false, 50_000}, {false, 200_000}, {true, 200_000}, {true, 800_000}} {
		if testing.Short() && c.rows > 200_000 {
			continue
		}
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
		ot := e.Cat.MustTable("orders").Primary()
		batch := make([]value.Row, 50_000)
		for lo := 0; lo < c.rows; lo += len(batch) {
			for i := range batch {
				id := lo + i
				batch[i] = value.Row{value.Int(int64(id)), value.String(fmt.Sprintf("r%d", id%8)),
					value.String(fmt.Sprintf("s%d", id%3)), value.Float(float64(id%1000) / 8), value.Int(int64(id % 20))}
			}
			ot.ApplyInsert(batch, 1)
		}
		if c.merged {
			ot.Merge(1)
		}
		e.Mgr.AdvanceTo(1)
		e.Mode, e.Workers = ModeVectorized, 2
		sess := e.NewSession()
		for _, sql := range []string{
			`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`,
			`SELECT COUNT(*), SUM(qty) FROM orders`,
		} {
			st, err := sess.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := st.Exec(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grows whatever scratch the statement needs
			allocs := testing.AllocsPerRun(3, run)
			const reps = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / reps
			t.Logf("merged=%v rows=%d: %.0f allocs, %d bytes per statement: %s", c.merged, c.rows, allocs, bytes, sql)
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("merged=%v rows=%d: %.0f allocs and %d bytes per statement, want at most %d and %d at any size: %s",
					c.merged, c.rows, allocs, bytes, maxAllocs, maxBytes, sql)
			}
		}
		sess.Close()
	}
}

// scanRunAllocs builds a table of cols columns — c0 INT, then INT, VARCHAR
// and DOUBLE in turn — range-partitioned on c0 into parts partitions of 300
// merged rows and 100 delta rows each, and returns what one execution of a
// prepared filtered count over every partition allocates: two morsels a
// partition, a kernel bound on each main one, the filter evaluated on each
// delta one.
func scanRunAllocs(t *testing.T, cols, parts int) float64 {
	t.Helper()
	defs, bounds := []string{"c0 INT"}, make([]string, parts-1)
	for c := 1; c < cols; c++ {
		defs = append(defs, fmt.Sprintf("c%d %s", c, [...]string{"INT", "VARCHAR", "DOUBLE"}[c%3]))
	}
	for i := range bounds {
		bounds[i] = fmt.Sprint((i + 1) * 1000)
	}
	ddl := `CREATE TABLE t (` + strings.Join(defs, ", ") + `)`
	if parts > 1 {
		ddl += ` PARTITION BY RANGE(c0) VALUES (` + strings.Join(bounds, ", ") + `)`
	}
	e := NewEngine()
	e.Workers = 1 // one fold: its group is allocated once however many morsels there are
	mustExec(t, e, ddl)
	for pi, part := range e.Cat.MustTable("t").Partitions {
		rows := make([]value.Row, 400)
		for i := range rows {
			row := value.Row{value.Int(int64(pi*1000 + i))}
			for c := 1; c < cols; c++ {
				row = append(row, [...]value.Value{value.Int(int64(i * c)), value.String(fmt.Sprint("v", i%7)), value.Float(float64(i) / 3)}[c%3])
			}
			rows[i] = row
		}
		part.Table.ApplyInsert(rows[:300], 1)
		part.Table.Merge(1)
		part.Table.ApplyInsert(rows[300:], 1)
	}
	e.Mgr.AdvanceTo(1)
	sess := e.NewSession()
	defer sess.Close()
	st, err := sess.Prepare(`SELECT COUNT(*) FROM t WHERE c0 > $1`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := st.Exec(value.Int(50))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rows[0][0].I, int64(400*parts-51); got != want {
			t.Fatalf("COUNT(*) = %d, want %d", got, want)
		}
	}
	run() // warm-up: grows the scan scratch
	return testing.AllocsPerRun(20, run)
}

// TestScanRunAllocsFlat: a scan run allocates a fixed number of times per
// statement whatever the table's width, and a small constant per partition
// — its snapshot and the kernel it binds — whatever its morsel count: no
// reader, no compiled filter, no dispatch and no code remap is allocated per
// column or per morsel.
func TestScanRunAllocsFlat(t *testing.T) {
	narrow, wide := scanRunAllocs(t, 2, 2), scanRunAllocs(t, 12, 2)
	t.Logf("2 partitions: %.0f allocations at 2 columns, %.0f at 12", narrow, wide)
	if wide-narrow > 2 {
		t.Errorf("2 -> 12 columns adds %.0f allocations per statement, want at most 2", wide-narrow)
	}
	// A table of one partition is not range-partitioned, and binding a
	// parameter to the range bounds costs the others one allocation a run:
	// the per-partition cost is read between two and eight.
	one, two, eight := scanRunAllocs(t, 6, 1), scanRunAllocs(t, 6, 2), scanRunAllocs(t, 6, 8)
	t.Logf("6 columns: %.0f allocations at 1 partition, %.0f at 2, %.0f at 8", one, two, eight)
	if per := (eight - two) / 6; per > 4 {
		t.Errorf("2 -> 8 partitions adds %.1f allocations per extra partition, want at most 4", per)
	}
	// A GROUP BY on a dictionary column remaps codes per morsel: nothing of
	// that — the interner's function, the remap of a small dictionary — may
	// be allocated per morsel.
	two, sixteen := codeGroupAllocs(t, 2), codeGroupAllocs(t, 16)
	t.Logf("GROUP BY a dictionary column: %.0f allocations at 2 morsels, %.0f at 16", two, sixteen)
	if sixteen-two > 2 {
		t.Errorf("2 -> 16 morsels adds %.0f allocations per statement, want at most 2", sixteen-two)
	}
}

// codeGroupAllocs is what a statement grouping a merged table of the given
// number of morsels by a dictionary column allocates, on one worker.
func codeGroupAllocs(t *testing.T, morsels int) float64 {
	t.Helper()
	e := NewEngine()
	e.Workers = 1
	mustExec(t, e, `CREATE TABLE t (k VARCHAR, n INT)`)
	rows := make([]value.Row, morsels*morselRows)
	for i := range rows {
		rows[i] = value.Row{value.String(fmt.Sprint("region-", i%8)), value.Int(int64(i))}
	}
	tbl := e.Cat.MustTable("t").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(1)
	e.Mgr.AdvanceTo(1)
	sess := e.NewSession()
	defer sess.Close()
	st, err := sess.Prepare(`SELECT k, COUNT(*), SUM(n) FROM t GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 8 {
			t.Fatalf("%d groups, want 8", len(res.Rows))
		}
	}
	run() // warm-up: grows the scan scratch
	return testing.AllocsPerRun(10, run)
}

// TestScratchPoolKeepsAFixedSet: the pool retains GOMAXPROCS scratches, the
// most recently returned first out, drops what is returned beyond that,
// and keeps its set across collections — what an idle process holds does not
// depend on when the collector last ran. Only a run with more runners than
// GOMAXPROCS widens the set, to its runners.
func TestScratchPoolKeepsAFixedSet(t *testing.T) {
	p := new(scratchPool)
	keep := runtime.GOMAXPROCS(0)
	out := make([]*scanScratch, keep+5)
	for i := range out {
		out[i] = p.take()
	}
	for _, s := range out {
		p.put(s)
	}
	if len(p.free) != keep {
		t.Fatalf("pool keeps %d scratches, want GOMAXPROCS = %d", len(p.free), keep)
	}
	runtime.GC()
	runtime.GC()
	for i := keep - 1; i >= 0; i-- {
		if p.take() != out[i] {
			t.Fatalf("take %d after two collections did not return the scratch put %d-th", keep-1-i, i)
		}
	}
	fresh := p.take()
	for _, s := range out {
		if fresh == s {
			t.Fatal("an empty pool lent a scratch that is already out")
		}
	}

	wide := append(p.takeRun(nil, keep+3), p.take(), p.take())
	for _, s := range wide {
		p.put(s)
	}
	if len(p.free) != keep+3 {
		t.Fatalf("pool keeps %d scratches after a run of %d workers, want as many", len(p.free), keep+3)
	}
}

// emptied reports whether s holds no sum: at most the spill a reset keeps,
// with no partials in it.
func (s *exactSum) emptied() bool {
	return s.hi == 0 && !s.on && (s.lo == nil || len(s.lo.p) == 0 && s.lo.big == nil)
}
