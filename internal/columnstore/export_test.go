package columnstore

// MainSynopsis is the synopsis t's main store was built with, whatever its
// delta holds: what the synopsis property checks against the main's rows.
func MainSynopsis(t *Table) *Synopsis {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.syn
}
