package sqlexec

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// This file owns one decision: given a filter, which partitions can hold a
// match. A filter is classified once (Classify) into comparisons of a
// column against a literal or a parameter; a partition is refuted when one
// of them is false for every value a min/max summary of that column admits
// (Refutes). The summaries are a range partition's bounds and its main's
// synopsis here, a distributed table's range slots in the SOE
// coordinator, and the aging engine's rule invariants and its statistics
// baseline behind the prune hook. The planner classifies a scan's filter
// once; every execution refutes partitions with the predicates, a
// parameter's value bound in (binding.bind), since a plan outlives the data
// and the hooks it was built beside. Scan kernels bind to the same
// predicates.

// Pred is one classified filter conjunct: <column> <cmp> <literal> or
// <column> <cmp> <parameter>, the column on the left whichever way the
// statement spelled it. A parameter predicate carries the slot, not the
// value, so a plan stays parameter-independent: Lit is NULL until a run
// copies the bound value in. Where no kernel binds, the executor evaluates
// the conjunct the predicate came from: a lone comparison is decided by the
// predicate itself (holds), and conj is -1; the two predicates of a BETWEEN
// share the compiled conjunct ScanPlan.conjs[conj].
type Pred struct {
	Col   int // index into the table's schema
	Op    columnstore.CmpOp
	Lit   value.Value
	Param int // 0-based parameter slot that supplies Lit; -1 for a literal
	conj  int
}

// cmpOps maps SQL comparison spellings to kernel operators.
var cmpOps = map[string]columnstore.CmpOp{
	"=": columnstore.CmpEQ, "<>": columnstore.CmpNE,
	"<": columnstore.CmpLT, "<=": columnstore.CmpLE,
	">": columnstore.CmpGT, ">=": columnstore.CmpGE,
}

// flipped is the operator that holds with the operands exchanged.
var flipped = [...]columnstore.CmpOp{
	columnstore.CmpEQ: columnstore.CmpEQ, columnstore.CmpNE: columnstore.CmpNE,
	columnstore.CmpLT: columnstore.CmpGT, columnstore.CmpLE: columnstore.CmpGE,
	columnstore.CmpGT: columnstore.CmpLT, columnstore.CmpGE: columnstore.CmpLE,
}

// Classify splits filter into its conjuncts and returns, in order, the
// predicates among them. A conjunct becomes a predicate when it compares a
// column of schema — unqualified or qualified by qual — with a non-NULL
// literal or a parameter through a plain comparison operator, in either
// operand order; a non-negated BETWEEN over such bounds becomes the two
// comparisons it means. Everything else (functions, LIKE, IN, several
// columns) is residue, which only a row-at-a-time evaluator can decide.
func Classify(filter Expr, qual string, schema columnstore.Schema) []Pred {
	c := classifier{qual: qual, schema: schema}
	c.add(filter)
	return c.preds
}

// classifier walks a filter's conjuncts in order. conjs are those its
// predicates do not decide alone: the residue, and each BETWEEN.
type classifier struct {
	qual   string
	schema columnstore.Schema
	preds  []Pred
	conjs  []conjunct
}

func (c *classifier) add(e Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *BinaryExpr:
		if x.Op == "AND" {
			c.add(x.L)
			c.add(x.R)
			return
		}
		if op, ok := cmpOps[x.Op]; ok && (c.compare(x.L, op, x.R, -1) || c.compare(x.R, flipped[op], x.L, -1)) {
			return
		}
	case *BetweenExpr:
		if k := len(c.conjs); !x.Not && operandOK(x.Lo) && operandOK(x.Hi) &&
			c.compare(x.E, columnstore.CmpGE, x.Lo, k) && c.compare(x.E, columnstore.CmpLE, x.Hi, k) {
			c.conjs = append(c.conjs, conjunct{expr: e})
			return
		}
	}
	c.conjs = append(c.conjs, conjunct{expr: e, residue: true})
}

// compare appends the predicate "col op operand", of the compiled conjunct
// conj (-1: none), when col is a column of the schema and operand a
// non-NULL literal or a parameter.
func (c *classifier) compare(col Expr, op columnstore.CmpOp, operand Expr, conj int) bool {
	cr, ok := col.(*ColRef)
	if !ok || (cr.Qual != "" && cr.Qual != c.qual) || !operandOK(operand) {
		return false
	}
	idx := c.schema.ColIndex(cr.Name)
	if idx < 0 {
		return false
	}
	p := Pred{Col: idx, Op: op, Param: -1, conj: conj}
	switch x := operand.(type) {
	case *Literal:
		p.Lit = x.Val
	case *Param:
		p.Param = x.Index
	}
	c.preds = append(c.preds, p)
	return true
}

// operandOK reports whether e can be a predicate's right-hand side. A NULL
// literal cannot: comparing with it is never true, and BETWEEN treats a
// NULL bound differently from the comparison it would decompose into.
func operandOK(e Expr) bool {
	switch x := e.(type) {
	case *Literal:
		return !x.Val.IsNull()
	case *Param:
		return true
	}
	return false
}

// Refutes reports whether "v <op> k" is false for every non-NULL value v
// with min <= v <= max; a NULL bound leaves that end open. It is the one
// test every min/max summary goes through. Bounds order against k only
// within a kind family — identical kinds, or int with float, the way the
// executors coerce — so a bound of another family refutes nothing, and
// neither does a NULL k (an unbound parameter).
func Refutes(op columnstore.CmpOp, k, min, max value.Value) bool {
	if k.IsNull() {
		return false
	}
	// below: k lies under every v; above: over every v.
	below, atMin := false, false
	if !min.IsNull() && kindsComparable(min.K, k.K) {
		c := value.Compare(k, min)
		below, atMin = c < 0, c == 0
	}
	above, atMax := false, false
	if !max.IsNull() && kindsComparable(max.K, k.K) {
		c := value.Compare(k, max)
		above, atMax = c > 0, c == 0
	}
	switch op {
	case columnstore.CmpEQ:
		return below || above
	case columnstore.CmpNE:
		return atMin && atMax // every v equals k
	case columnstore.CmpLT:
		return below || atMin // min >= k
	case columnstore.CmpLE:
		return below // min > k
	case columnstore.CmpGT:
		return above || atMax // max <= k
	case columnstore.CmpGE:
		return above // max < k
	}
	return false
}

// kindsComparable reports whether values of kind a order meaningfully
// against a literal of kind b: identical kinds always do, and the numeric
// kinds (int/float) interoperate the way the executors' coercions do.
func kindsComparable(a, b value.Kind) bool {
	if a == b {
		return true
	}
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return num(a) && num(b)
}

// PruneHook lets an outer layer take part in partition pruning with what
// only it knows: the aging engine's rule invariants (§III), an SOE node
// task's partition list. It is called once per scan per execution, with the
// scan's classified predicates — a parameter's value bound in — and returns
// the subset of parts that must be scanned (nil: none).
type PruneHook func(entry *catalog.TableEntry, preds []Pred, parts []*catalog.Partition) []*catalog.Partition

// pruneHooks are the hooks a run prunes its scans through: the session's
// Scope, then the engine's Prune.
type pruneHooks struct{ scope, engine PruneHook }

// classify readies the scan for pruning, once, when everything that will be
// pushed into it has been: it classifies the filter. The pruning itself
// reads what the catalog does not hold still — a main's synopsis, the
// aging rules, a node task's partition list, a parameter — and so runs on
// every execution (binding.bind): a plan is shared by every session and
// every run of its statement.
func (s *ScanPlan) classify() {
	c := classifier{qual: s.Alias, schema: s.Entry.Schema}
	c.add(s.Filter)
	s.Preds, s.conjs = c.preds, c.conjs
	s.params = slices.ContainsFunc(s.Preds, func(p Pred) bool { return p.Param >= 0 })
}

// holds reports whether the lone comparison p holds for the cell v, the
// run's params bound: never when either side is NULL — as the comparison
// compiled, and the kernels, decide it.
func (p *Pred) holds(v value.Value, params []value.Value) bool {
	lit := p.Lit
	if p.Param >= 0 {
		lit = value.Null
		if p.Param < len(params) {
			lit = params[p.Param]
		}
	}
	return !v.IsNull() && !lit.IsNull() && p.Op.MatchOrd(value.Compare(v, lit))
}

// binding is a run of a scan's pruning and its scratch: the predicates the
// run bound and the partitions it kept. A vectorized scan run keeps one
// across statements; anywhere else it is fresh.
type binding struct {
	preds []Pred
	parts []*catalog.Partition
}

// reset drops what a run bound and kept, keeping the memory.
func (b *binding) reset() {
	clear(b.preds[:cap(b.preds)])
	clear(b.parts[:cap(b.parts)])
	b.preds, b.parts = b.preds[:0], b.parts[:0]
}

// bind is partition pruning, run by every execution of scan s: the
// partitions it reads and how many of the table's that leaves out. The
// run's parameters are bound into the predicates first; then the hooks
// (the session's Scope, the engine's Prune, and the hook of the Planner
// that built s when it had one) keep what they keep, and of that range
// bounds and synopses refute what they can.
func (b *binding) bind(s *ScanPlan, hooks pruneHooks, params []value.Value) (parts []*catalog.Partition, pruned int) {
	preds := s.Preds
	if s.params {
		b.preds = BindPreds(b.preds[:0], s.Preds, params)
		preds = b.preds
	}
	parts = s.Entry.Partitions
	for _, hook := range [...]PruneHook{hooks.scope, hooks.engine, s.hook} {
		if hook != nil {
			parts = hook(s.Entry, preds, parts)
		}
	}
	if kept := unrefuted(b.parts[:0], s.Entry.Schema, preds, parts); len(kept) < len(parts) {
		b.parts, parts = kept, kept
	}
	return parts, len(s.Entry.Partitions) - len(parts)
}

// BindPreds is preds with each parameter's value bound in, for a run with
// params: preds itself when none has a parameter, else copies appended to
// dst. An unbound parameter binds NULL, which refutes nothing.
func BindPreds(dst, preds []Pred, params []value.Value) []Pred {
	if !slices.ContainsFunc(preds, func(p Pred) bool { return p.Param >= 0 }) {
		return preds
	}
	at := len(dst)
	dst = append(dst, preds...)
	for i := at; i < len(dst); i++ {
		if p := &dst[i]; p.Param >= 0 {
			p.Lit = value.Null
			if p.Param < len(params) {
				p.Lit = params[p.Param]
			}
		}
	}
	return dst
}

// unrefuted returns the partitions no predicate refutes: parts itself when
// that is all of them, otherwise a list in dst's memory.
func unrefuted(dst []*catalog.Partition, schema columnstore.Schema, preds []Pred, parts []*catalog.Partition) []*catalog.Partition {
	if len(preds) == 0 {
		return parts
	}
	copied := false // dst holds nothing, and parts is the answer, until the first refutation
	for i, p := range parts {
		switch refuted := rangeRefutes(schema, p, preds) || zoneRefutes(p, preds); {
		case refuted && !copied:
			dst, copied = append(dst, parts[:i]...), true
		case !refuted && copied:
			dst = append(dst, p)
		}
	}
	if !copied {
		return parts
	}
	return dst
}

// rangeRefutes reports whether a predicate on the partition column proves
// range partition p empty. Its rows satisfy Lo <= v < Hi: over a column of
// an integer kind that is the closed [Lo, Hi-1]; over any other the closed
// [Lo, Hi] is a superset, which costs a prune at the exact boundary and
// never a row.
func rangeRefutes(schema columnstore.Schema, p *catalog.Partition, preds []Pred) bool {
	if p.PruneCol == "" {
		return false
	}
	col := schema.ColIndex(p.PruneCol)
	if col < 0 {
		return false
	}
	max := p.Hi
	if max.K == value.KindInt && schema[col].Kind == value.KindInt {
		max.I--
	}
	for _, pr := range preds {
		if pr.Col == col && Refutes(pr.Op, pr.Lit, p.Lo, max) {
			return true
		}
	}
	return false
}

// zoneRefutes reports whether a predicate proves partition p empty by its
// main's synopsis, whatever the tier, before a page is read or faulted.
// There is none while the delta holds rows (Table.Synopsis); it covers dead
// versions too, a superset that can never hide a visible match.
func zoneRefutes(p *catalog.Partition, preds []Pred) bool {
	z := p.Table.Synopsis()
	if z == nil {
		return false
	}
	for _, pr := range preds {
		if pr.Col >= len(z.Cols) || pr.Lit.IsNull() {
			continue
		}
		zc := z.Cols[pr.Col]
		// Only NULLs (or no rows at all): a comparison is never true.
		if zc.Count == 0 || Refutes(pr.Op, pr.Lit, zc.Min, zc.Max) {
			return true
		}
	}
	return false
}
