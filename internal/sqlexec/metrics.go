package sqlexec

import "repro/internal/stats"

// Vectorized-execution observability. Like the column store, the executor
// has no per-instance registry path inside Run, so morsel and kernel
// accounting reports into the process-wide default registry (the SOE
// stats service folds it into every collection). A statement adds its
// totals once, when it ends (ExecStats.count): no morsel, partition or
// batch touches a counter.
var (
	// cVecQueries counts queries the vectorized executor ran to the end.
	cVecQueries = stats.Default.Counter("sql_vec_queries_total")

	// cVecMorsels counts dispatched morsels; cVecKernelHits counts scan
	// conjuncts bound to an encoded-column kernel (per partition), and
	// cVecKernelFallbacks those evaluated by the generic row expression
	// instead.
	cVecMorsels         = stats.Default.Counter("sql_vec_morsels_total")
	cVecKernelHits      = stats.Default.Counter("sql_vec_kernel_hits_total")
	cVecKernelFallbacks = stats.Default.Counter("sql_vec_kernel_fallbacks_total")

	// hVecWorkerBusy records per-worker busy time per query, exposing
	// morsel-pool utilization skew.
	hVecWorkerBusy = stats.Default.Histogram("sql_vec_worker_busy_us")

	// Compressed-execution counters: join probe keys resolved as integer
	// codes, RLE runs folded whole into aggregates, operator batches fused
	// past an intermediate materialization, and the estimated boxed bytes
	// never materialized because of late materialization.
	cVecCodesJoined   = stats.Default.Counter("sql_vec_codes_joined_total")
	cVecRunsFolded    = stats.Default.Counter("sql_vec_runs_folded_total")
	cVecBatchesFused  = stats.Default.Counter("sql_vec_batches_fused_total")
	cVecDecodeAvoided = stats.Default.Counter("sql_vec_decode_bytes_avoided_total")
)

// count adds a statement's totals to the process-wide sql_vec_* counters.
// The scratch pool calls it once per statement, as the statement gives its
// execCtx back.
func (s *ExecStats) count() {
	cVecMorsels.Add(int64(s.Morsels))
	cVecKernelHits.Add(int64(s.KernelHits))
	cVecKernelFallbacks.Add(int64(s.KernelFallbacks))
	cVecCodesJoined.Add(int64(s.CodesJoined))
	cVecRunsFolded.Add(int64(s.RunsFolded))
	cVecBatchesFused.Add(int64(s.BatchesFused))
	cVecDecodeAvoided.Add(int64(s.DecodeBytesAvoided))
}
