package sqlexec

import (
	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/value"
)

// Zone-map pruning: warm partitions carry a per-column min/max/count
// synopsis recorded at demotion time, so the planner can drop partitions
// a filter refutes before the executor faults a single page. Zone maps
// cover every physical row (including MVCC-dead versions), which makes
// them a conservative superset — a refuted zone can never hide a visible
// matching row.

// zonePrune filters parts down to those a scan's conjuncts cannot refute
// via zone maps. Only warm partitions with a synopsis still matching the
// table's current shape participate; everything else is kept.
func zonePrune(s *ScanPlan, conjs []Expr, parts []*catalog.Partition) []*catalog.Partition {
	preds := make([]vecPred, 0, len(conjs))
	for _, c := range conjs {
		// A parameter's value is unknown at plan time; only literals prune.
		if p, ok := classifyVecConjunct(c, s.cols); ok && p.Param < 0 {
			preds = append(preds, p)
		}
	}
	if len(preds) == 0 {
		return parts
	}
	kept := parts[:0:0]
	for _, p := range parts {
		if zoneRefutes(p, preds) {
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// zoneRefutes reports whether any conjunct proves partition p empty.
func zoneRefutes(p *catalog.Partition, preds []vecPred) bool {
	z := p.Zone
	if z == nil || p.Tier != catalog.TierExtended {
		return false
	}
	// Stale synopsis: rows were inserted or a merge re-hydrated the table
	// since demotion. Never prune on it.
	if z.Rows != p.Table.NumRows() || z.Merges != p.Table.MergeCount() {
		return false
	}
	for _, pr := range preds {
		if pr.Col >= len(z.Cols) {
			continue
		}
		if zoneRefutesPred(z.Cols[pr.Col], pr.Op, pr.Lit) {
			return true
		}
	}
	return false
}

// zoneRefutesPred reports whether "col <op> k" is provably false for every
// row summarized by zc.
func zoneRefutesPred(zc columnstore.ColumnZone, op columnstore.CmpOp, k value.Value) bool {
	if zc.Count == 0 {
		// Only NULLs (or no rows at all): a comparison is never true.
		return true
	}
	// Compare only within a kind family — value.Compare orders across
	// kinds by kind tag, which is meaningless for pruning.
	if !zoneKindsComparable(zc.Min.K, k.K) {
		return false
	}
	cmpLo := value.Compare(k, zc.Min) // k vs min
	cmpHi := value.Compare(k, zc.Max) // k vs max
	switch op {
	case columnstore.CmpEQ:
		return cmpLo < 0 || cmpHi > 0
	case columnstore.CmpNE:
		// All values equal k ⇒ no row differs.
		return cmpLo == 0 && cmpHi == 0 && value.Compare(zc.Min, zc.Max) == 0
	case columnstore.CmpLT:
		return cmpLo <= 0 // min >= k
	case columnstore.CmpLE:
		return cmpLo < 0 // min > k
	case columnstore.CmpGT:
		return cmpHi >= 0 // max <= k
	case columnstore.CmpGE:
		return cmpHi > 0 // max < k
	}
	return false
}

// zoneKindsComparable reports whether min/max of kind a order meaningfully
// against a literal of kind b: identical kinds always do, and the numeric
// kinds (int/float) interoperate the way the executors' coercions do.
func zoneKindsComparable(a, b value.Kind) bool {
	if a == b {
		return true
	}
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return num(a) && num(b)
}
