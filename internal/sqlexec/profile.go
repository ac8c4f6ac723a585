package sqlexec

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/value"
)

// This file implements EXPLAIN ANALYZE: a per-query Profile mirroring the
// plan tree, populated by whichever executor runs the statement. Each
// operator records its inclusive wall time (own work plus descendants) so
// self times telescope — summing every operator's self time reproduces
// the root's inclusive time, which is how the analyze output stays
// reconcilable against the statement's end-to-end latency.
//
// Instrumentation attaches at operator boundaries, once per Next call
// (interpreter) or per batch/morsel (vectorized), so the vectorized hot
// path pays a handful of clock reads per 16k-row morsel — experiment E20
// pins the overhead below 10%.

// OpProfile is one operator's measured runtime behavior. What its runs
// count — rows and partitions scanned, morsels, kernels, page faults and
// late materialization — is the ExecStats its runs published
// (execCtx.publish): the statement's stats are the sum over its operators.
// Time and the join's build and probe inputs are timed and counted where
// they happen.
type OpProfile struct {
	Label    string
	Children []*OpProfile

	stats     ExecStats
	wallNS    atomic.Int64 // inclusive: operator + descendants
	rowsOut   atomic.Int64
	batches   atomic.Int64
	busyNS    atomic.Int64 // summed worker-side morsel time
	buildRows atomic.Int64 // joins: hash-table input
	probeRows atomic.Int64 // joins: probe-side input
	fused     bool         // executed inside the parent (agg+scan fusion)
}

// Wall returns the operator's inclusive wall time.
func (o *OpProfile) Wall() time.Duration { return time.Duration(o.wallNS.Load()) }

// Fused reports whether the operator ran inside its parent (scan fused
// into an aggregate, projection or join; join fused into an aggregate):
// it has no wall time of its own, only counters.
func (o *OpProfile) Fused() bool { return o.fused }

// inclusive is the wall time the operator accounts for in its parent's
// window: its own, or — fused, so never timed — that of the children
// that did run as pipeline stages (a fused join's build side).
func (o *OpProfile) inclusive() int64 {
	if !o.fused {
		return o.wallNS.Load()
	}
	var sum int64
	for _, c := range o.Children {
		sum += c.inclusive()
	}
	return sum
}

// Self returns the operator's exclusive wall time: inclusive minus the
// children's inclusive time, clamped at zero.
func (o *OpProfile) Self() time.Duration {
	if o.fused {
		return 0
	}
	self := o.wallNS.Load()
	for _, c := range o.Children {
		self -= c.inclusive()
	}
	if self < 0 {
		self = 0
	}
	return time.Duration(self)
}

// RowsOut returns the number of rows the operator produced.
func (o *OpProfile) RowsOut() int64 { return o.rowsOut.Load() }

// Profile is the runtime-annotated plan of one analyzed statement.
type Profile struct {
	Root    *OpProfile
	Mode    Mode
	Workers int           // runners of the widest morsel run (vectorized mode)
	Total   time.Duration // end-to-end statement wall time
	SQL     string

	byPlan map[Plan]*OpProfile
}

// newProfile builds the OpProfile tree mirroring a plan, whose scans the
// run prunes through hooks.
func newProfile(p Plan, mode Mode, workers int, hooks pruneHooks) *Profile {
	prof := &Profile{Mode: mode, Workers: workers, byPlan: map[Plan]*OpProfile{}}
	prof.Root = prof.build(p, hooks)
	return prof
}

func (p *Profile) build(pl Plan, hooks pruneHooks) *OpProfile {
	op := &OpProfile{Label: planLabel(pl, hooks)}
	p.byPlan[pl] = op
	for _, c := range planChildren(pl) {
		op.Children = append(op.Children, p.build(c, hooks))
	}
	return op
}

// node returns the profile node for a plan operator; nil on a nil
// profile or unknown node, and every recording path tolerates nil.
func (p *Profile) node(pl Plan) *OpProfile {
	if p == nil {
		return nil
	}
	return p.byPlan[pl]
}

// OperatorTotal sums every operator's self time — by construction this
// telescopes to the root's inclusive time and should land within a few
// percent of Total (the remainder is parse/plan/result assembly).
func (p *Profile) OperatorTotal() time.Duration {
	var sum time.Duration
	var walk func(o *OpProfile)
	walk = func(o *OpProfile) {
		sum += o.Self()
		for _, c := range o.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return sum
}

// ClockReads is the number of clock reads the vectorized executor's
// instrumentation made for this statement, derived from its counters: an
// operator reads the clock twice per run (runOp) and twice per batch it
// emits (opRun.hand), the scan twice per morsel. It is
// what profiling costs in time, stated as a count that repeats: per batch
// and per morsel, never per row.
func (p *Profile) ClockReads() int64 {
	var n int64
	var walk func(o *OpProfile)
	walk = func(o *OpProfile) {
		if !o.fused {
			n += 2 + 2*o.batches.Load()
		}
		n += 2 * int64(o.stats.Morsels)
		for _, c := range o.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return n
}

// Render formats the annotated plan tree.
func (p *Profile) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN ANALYZE (%s", p.Mode)
	if p.Mode == ModeVectorized && p.Workers > 0 {
		fmt.Fprintf(&sb, ", %d workers", p.Workers)
	}
	fmt.Fprintf(&sb, ") total=%s operators=%s\n", fmtDur(p.Total), fmtDur(p.OperatorTotal()))
	if p.Root != nil {
		p.renderOp(&sb, p.Root, 1)
	}
	return sb.String()
}

func (p *Profile) renderOp(sb *strings.Builder, o *OpProfile, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(o.Label)
	if o.fused {
		fmt.Fprintf(sb, "  (fused into parent)")
	} else {
		fmt.Fprintf(sb, "  time=%s self=%s", fmtDur(o.Wall()), fmtDur(o.Self()))
	}
	if n := o.rowsOut.Load(); n > 0 || !o.fused {
		fmt.Fprintf(sb, " rows_out=%d", n)
	}
	if n := o.batches.Load(); n > 0 {
		fmt.Fprintf(sb, " batches=%d", n)
	}
	st := &o.stats
	if n := st.RowsScanned; n > 0 {
		fmt.Fprintf(sb, " rows_scanned=%d", n)
	}
	if n := st.PartitionsScanned; n > 0 {
		fmt.Fprintf(sb, " partitions=%d", n)
		if pr := st.PartitionsPruned; pr > 0 {
			fmt.Fprintf(sb, " pruned=%d", pr)
		}
	}
	if n := st.Morsels; n > 0 {
		fmt.Fprintf(sb, " morsels=%d", n)
	}
	if h, f := st.KernelHits, st.KernelFallbacks; h+f > 0 {
		fmt.Fprintf(sb, " kernels=%d/%d", h, f)
	}
	if n := st.PageFaults; n > 0 {
		fmt.Fprintf(sb, " page_faults=%d fault_time=%s", n, fmtDur(time.Duration(st.PageFaultMicros)*time.Microsecond))
	}
	if busy := o.busyNS.Load(); busy > 0 {
		fmt.Fprintf(sb, " worker_busy=%s", fmtDur(time.Duration(busy)))
		if p.Workers > 0 {
			// Occupancy: average busy workers over the operator's (or, for
			// fused scans, the statement's) wall-clock window.
			window := o.wallNS.Load()
			if window == 0 {
				window = int64(p.Total)
			}
			if window > 0 {
				fmt.Fprintf(sb, " occupancy=%.2f/%d", float64(busy)/float64(window), p.Workers)
			}
		}
	}
	if b := o.buildRows.Load(); b > 0 || o.probeRows.Load() > 0 {
		fmt.Fprintf(sb, " build=%d probe=%d", b, o.probeRows.Load())
	}
	if n := st.CodesJoined; n > 0 {
		fmt.Fprintf(sb, " codes_joined=%d", n)
	}
	if n := st.RunsFolded; n > 0 {
		fmt.Fprintf(sb, " runs_folded=%d", n)
	}
	if n := st.BatchesFused; n > 0 {
		fmt.Fprintf(sb, " batches_fused=%d", n)
	}
	if n := st.DecodeBytesAvoided; n > 0 {
		fmt.Fprintf(sb, " decode_avoided=%dB", n)
	}
	sb.WriteString("\n")
	for _, c := range o.Children {
		p.renderOp(sb, c, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

// planChildren enumerates a plan node's inputs.
func planChildren(p Plan) []Plan {
	switch x := p.(type) {
	case *FilterPlan:
		return []Plan{x.Child}
	case *ProjectPlan:
		return []Plan{x.Child}
	case *JoinPlan:
		return []Plan{x.L, x.R}
	case *AggPlan:
		return []Plan{x.Child}
	case *DistinctPlan:
		return []Plan{x.Child}
	case *SortPlan:
		return []Plan{x.Child}
	case *LimitPlan:
		return []Plan{x.Child}
	case *AliasPlan:
		return []Plan{x.Child}
	case *foldStatePlan:
		return []Plan{x.agg}
	}
	return nil
}

// planLabel is the one-line operator description EXPLAIN and EXPLAIN
// ANALYZE print. A scan counts the partitions a run through hooks reads,
// its parameters unbound.
func planLabel(p Plan, hooks pruneHooks) string {
	switch x := p.(type) {
	case *ScanPlan:
		s := "Scan " + x.Entry.Name
		if x.Alias != x.Entry.Name {
			s += " AS " + x.Alias
		}
		var b binding
		parts, _ := b.bind(x, hooks, nil)
		s += " [" + strconv.Itoa(len(parts)) + "/" + strconv.Itoa(len(x.Entry.Partitions)) + " partitions]"
		if x.Filter != nil {
			s += " filter=" + ExprText(x.Filter)
		}
		return s
	case *TableFuncPlan:
		return "TableFunc " + x.Name
	case *VirtualScanPlan:
		if x.Alias != x.Table.Name && !strings.HasSuffix(x.Table.Name, "."+x.Alias) {
			return "VirtualScan " + x.Table.Name + " AS " + x.Alias
		}
		return "VirtualScan " + x.Table.Name
	case *FilterPlan:
		return "Filter " + ExprText(x.Pred)
	case *JoinPlan:
		kind := "HashJoin"
		if len(x.EquiL) == 0 {
			kind = "NestedLoopJoin"
		}
		if x.LeftOuter {
			kind = "Left" + kind
		}
		for i := range x.EquiL {
			kind += " " + ExprText(x.EquiL[i]) + "=" + ExprText(x.EquiR[i])
		}
		if x.Residual != nil {
			kind += " residual=" + ExprText(x.Residual)
		}
		return kind
	case *ProjectPlan:
		return "Project " + strings.Join(colNames(x.cols), ", ")
	case *AggPlan:
		return fmt.Sprintf("Aggregate groups=%d aggs=%d", len(x.GroupBy), len(x.Aggs))
	case *DistinctPlan:
		return "Distinct"
	case *SortPlan:
		return "Sort"
	case *LimitPlan:
		return fmt.Sprintf("Limit %d offset %d", x.N, x.Offset)
	case *AliasPlan:
		return "Alias " + x.Alias
	case *ValuesPlan:
		return fmt.Sprintf("Values %d rows", len(x.Rows))
	}
	return fmt.Sprintf("%T", p)
}

// --- executor hooks ---------------------------------------------------------

// profIter wraps a Volcano iterator, timing Open/Next/Close inclusively
// and counting produced rows.
type profIter struct {
	inner iterator
	op    *OpProfile
}

func (it *profIter) Open() error {
	t0 := time.Now()
	err := it.inner.Open()
	it.op.wallNS.Add(time.Since(t0).Nanoseconds())
	return err
}

func (it *profIter) Next() (value.Row, bool, error) {
	t0 := time.Now()
	row, ok, err := it.inner.Next()
	it.op.wallNS.Add(time.Since(t0).Nanoseconds())
	if ok {
		it.op.rowsOut.Add(1)
	}
	return row, ok, err
}

func (it *profIter) Close() {
	t0 := time.Now()
	it.inner.Close()
	it.op.wallNS.Add(time.Since(t0).Nanoseconds())
}

// wrapIter attaches profiling to an interpreter operator. The wrapped
// children are invoked inside the parent's Next, so wall times nest
// inclusively on their own.
func (p *Profile) wrapIter(pl Plan, it iterator) iterator {
	if p == nil {
		return it
	}
	op := p.byPlan[pl]
	if op == nil {
		return it
	}
	return &profIter{inner: it, op: op}
}
