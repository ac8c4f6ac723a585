package txn

import "repro/internal/stats"

// Process-wide commit-pipeline metrics, registered on the default stats
// registry so they flow through the cluster stats service and the
// Prometheus exposition without extra plumbing (same pattern as the
// columnstore counters).
var (
	cCommits      = stats.Default.Counter("txn_commits_total")
	cAborts       = stats.Default.Counter("txn_aborts_total")
	cConflicts    = stats.Default.Counter("txn_conflicts_total")
	cRetries      = stats.Default.Counter("txn_retries_total")
	cGroupCommits = stats.Default.Counter("txn_group_commits_total")
	hGroupSize    = stats.Default.Histogram("txn_group_commit_size")

	cBgMerges     = stats.Default.Counter("merge_background_total")
	gMergeBacklog = stats.Default.Gauge("merge_backlog_delta_rows")
)
