// Package aging implements the semantic data-aging mechanism of §III:
// applications define aging rules ("age a sales order if it is closed,
// the closing date is older than 3 months, and it is not from this
// year"), the engine stores them in catalog metadata, moves matching rows
// into cold partitions, and — because the rules carry business meaning —
// prunes partitions far more aggressively than any statistics-based
// approach. Dependencies between objects ("an invoice ages only when its
// order is aged") form a checked acyclic graph and enable the join-split
// optimization the paper walks through. Experiment E6 measures all of it.
package aging

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/txn"
	"repro/internal/value"
)

// Rule is one application-defined aging rule.
type Rule struct {
	Table string

	// A row is cold when StatusCol equals ClosedStatus ...
	StatusCol    string
	ClosedStatus string
	// ... and DateCol is at least MinAge old ...
	DateCol string
	MinAge  time.Duration
	// ... and (optionally) the date is not from the current year.
	NotCurrentYear bool

	// DependsOn couples this object's aging to a parent object: a row
	// ages only when the referenced parent row is already aged.
	DependsOn *Dependency
}

// Dependency references the parent object of a coupled aging rule.
type Dependency struct {
	ParentTable  string
	ParentKeyCol string
	FKCol        string
}

// coldMeta is what the pruner knows about one cold partition.
type coldMeta struct {
	rule      Rule
	maxDate   int64 // every row in the partition has DateCol <= maxDate
	partition *catalog.Partition
}

// Manager owns the rules, the cold partitions, and the semantic pruner.
type Manager struct {
	mu      sync.Mutex
	eng     *sqlexec.Engine
	rules   map[string]Rule
	cold    map[string]*coldMeta
	hotOnly map[string]bool

	// Warm, when set, makes rule evaluation the demote policy: after each
	// aging run the cold partition is paged out to the extended store, so
	// aged rows actually leave memory instead of staying fully resident.
	Warm *extstore.Store
}

// Attach creates the aging manager and installs its pruner into the
// engine.
func Attach(eng *sqlexec.Engine) *Manager {
	m := &Manager{
		eng:     eng,
		rules:   map[string]Rule{},
		cold:    map[string]*coldMeta{},
		hotOnly: map[string]bool{},
	}
	eng.Prune = m.Prune
	return m
}

// DefineRule validates and stores a rule; the serialized form lands in
// catalog metadata, making aging semantics part of the database (§III).
func (m *Manager) DefineRule(r Rule) error {
	entry, ok := m.eng.Cat.Table(r.Table)
	if !ok {
		return fmt.Errorf("aging: unknown table %q", r.Table)
	}
	for _, c := range []string{r.StatusCol, r.DateCol} {
		if entry.Schema.ColIndex(c) < 0 {
			return fmt.Errorf("aging: column %q not in %s", c, r.Table)
		}
	}
	if r.DependsOn != nil {
		parent, ok := m.eng.Cat.Table(r.DependsOn.ParentTable)
		if !ok {
			return fmt.Errorf("aging: unknown parent table %q", r.DependsOn.ParentTable)
		}
		if parent.Schema.ColIndex(r.DependsOn.ParentKeyCol) < 0 {
			return fmt.Errorf("aging: parent key %q not in %s", r.DependsOn.ParentKeyCol, r.DependsOn.ParentTable)
		}
		if entry.Schema.ColIndex(r.DependsOn.FKCol) < 0 {
			return fmt.Errorf("aging: foreign key %q not in %s", r.DependsOn.FKCol, r.Table)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules[r.Table] = r
	if err := m.checkAcyclic(); err != nil {
		delete(m.rules, r.Table)
		return err
	}
	blob, _ := json.Marshal(struct {
		Status, Closed, Date string
		MinAgeMicros         int64
		NotCurrentYear       bool
	}{r.StatusCol, r.ClosedStatus, r.DateCol, int64(r.MinAge / time.Microsecond), r.NotCurrentYear})
	return m.eng.Cat.SetMetadata(r.Table, "aging_rule", string(blob))
}

// checkAcyclic verifies the dependency graph has no cycles ("there is no
// cycle in the dependency graph"). Caller holds m.mu.
func (m *Manager) checkAcyclic() error {
	state := map[string]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(t string) error
	visit = func(t string) error {
		switch state[t] {
		case 1:
			return fmt.Errorf("aging: dependency cycle through %q", t)
		case 2:
			return nil
		}
		state[t] = 1
		if r, ok := m.rules[t]; ok && r.DependsOn != nil {
			if err := visit(r.DependsOn.ParentTable); err != nil {
				return err
			}
		}
		state[t] = 2
		return nil
	}
	tables := make([]string, 0, len(m.rules))
	for t := range m.rules {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		if err := visit(t); err != nil {
			return err
		}
	}
	return nil
}

// agingOrder returns rule tables parents-first. Caller holds m.mu.
func (m *Manager) agingOrder() []string {
	var order []string
	state := map[string]int{}
	var visit func(t string)
	visit = func(t string) {
		if state[t] != 0 {
			return
		}
		state[t] = 1
		if r, ok := m.rules[t]; ok && r.DependsOn != nil {
			visit(r.DependsOn.ParentTable)
		}
		order = append(order, t)
	}
	tables := make([]string, 0, len(m.rules))
	for t := range m.rules {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		visit(t)
	}
	var ruled []string
	for _, t := range order {
		if _, ok := m.rules[t]; ok {
			ruled = append(ruled, t)
		}
	}
	return ruled
}

// RunAging applies every rule at time now, moving cold rows from hot
// partitions into the table's cold partition. Returns rows moved per
// table.
func (m *Manager) RunAging(now time.Time) (map[string]int, error) {
	m.mu.Lock()
	order := m.agingOrder()
	m.mu.Unlock()

	moved := map[string]int{}
	for _, table := range order {
		n, err := m.ageTable(table, now)
		if err != nil {
			return moved, err
		}
		moved[table] = n
	}
	return moved, nil
}

// demoteCold pages the table's cold partition out to the extended store
// and reports its footprint. Cold-partition accounting is in bytes of
// encoded size — not row counts — so E6 and the tiering experiment E21
// share one memory-footprint metric.
func (m *Manager) demoteCold(table string, c *coldMeta) error {
	if m.Warm != nil && c.partition.Table.NumRows() > 0 {
		if err := m.Warm.Demote(c.partition, m.eng.Mgr.MinActiveTS()); err != nil {
			return fmt.Errorf("aging: demote %s: %w", table, err)
		}
	}
	if m.eng.Obs != nil {
		m.eng.Obs.Gauge("aging_cold_bytes", "table="+table).Set(float64(c.partition.Table.Bytes()))
	}
	return nil
}

func (m *Manager) ageTable(table string, now time.Time) (int, error) {
	m.mu.Lock()
	rule := m.rules[table]
	m.mu.Unlock()

	entry, ok := m.eng.Cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("aging: table %q dropped", table)
	}
	cold, err := m.coldPartition(entry, rule)
	if err != nil {
		return 0, err
	}

	si := entry.Schema.ColIndex(rule.StatusCol)
	di := entry.Schema.ColIndex(rule.DateCol)
	cutoff := now.Add(-rule.MinAge).UnixMicro()
	curYear := now.UTC().Year()

	// Parent aged-key set for dependency-coupled rules.
	var agedParents map[string]bool
	var fki int
	if rule.DependsOn != nil {
		if agedParents, err = m.agedKeySet(rule.DependsOn.ParentTable, rule.DependsOn.ParentKeyCol); err != nil {
			return 0, err
		}
		fki = entry.Schema.ColIndex(rule.DependsOn.FKCol)
	}

	isCold := func(row value.Row) bool {
		if row[si].AsString() != rule.ClosedStatus {
			return false
		}
		d := row[di].AsInt()
		if d > cutoff {
			return false
		}
		if rule.NotCurrentYear && time.UnixMicro(d).UTC().Year() == curYear {
			return false
		}
		if agedParents != nil && !agedParents[row[fki].AsString()] {
			return false
		}
		return true
	}

	moved := 0
	_, err = m.eng.Mgr.RunInTxn(func(tx *txn.Txn) error {
		for _, p := range entry.Partitions {
			if p == cold.partition {
				continue
			}
			snap, err := tx.SnapshotTable(p.Table.Name())
			if err != nil {
				return err
			}
			for pos := 0; pos < snap.NumRows(); pos++ {
				if !snap.Visible(pos) {
					continue
				}
				row := snap.Row(pos)
				if !isCold(row) {
					continue
				}
				if err := tx.Delete(p.Table.Name(), snap.ID(pos)); err != nil {
					return err
				}
				if err := tx.Insert(cold.partition.Table.Name(), row); err != nil {
					return err
				}
				if d := row[di].AsInt(); d > cold.maxDate {
					cold.maxDate = d
				}
				moved++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if cold.maxDate < cutoff {
		cold.maxDate = cutoff
	}
	if err := m.demoteCold(table, cold); err != nil {
		return moved, err
	}
	return moved, nil
}

// coldPartition returns (creating on first use) the cold partition of a
// table.
func (m *Manager) coldPartition(entry *catalog.TableEntry, rule Rule) (*coldMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.cold[entry.Name]; ok {
		return c, nil
	}
	name := entry.Name + "_aged"
	p := &catalog.Partition{Name: name, Table: newColdTable(name, entry)}
	if err := m.eng.Cat.AttachPartition(entry.Name, p); err != nil {
		return nil, err
	}
	m.eng.Mgr.Register(p.Table)
	c := &coldMeta{rule: rule, partition: p}
	m.cold[entry.Name] = c
	return c, nil
}

// newColdTable creates the backing column-store table of a cold partition.
func newColdTable(name string, entry *catalog.TableEntry) *columnstore.Table {
	return columnstore.NewTable(name, entry.Schema)
}

// agedKeySet collects the parent keys present in the parent's cold
// partition: one statement, scoped to that partition.
func (m *Manager) agedKeySet(parentTable, keyCol string) (map[string]bool, error) {
	m.mu.Lock()
	c, ok := m.cold[parentTable]
	m.mu.Unlock()
	out := map[string]bool{}
	if !ok {
		return out, nil
	}
	s := m.eng.NewSession()
	defer s.Close()
	s.Scope = func(_ *catalog.TableEntry, _ []sqlexec.Pred, _ []*catalog.Partition) []*catalog.Partition {
		return []*catalog.Partition{c.partition}
	}
	res, err := s.Query("SELECT " + keyCol + " FROM " + parentTable)
	if err != nil {
		return nil, fmt.Errorf("aging: aged keys of %s: %w", parentTable, err)
	}
	for _, row := range res.Rows {
		out[row[0].AsString()] = true
	}
	return out, nil
}

// HotOnly executes fn with the table's cold partitions excluded from every
// scan — the join-split optimization: when a dependency rule guarantees
// the join partner of a hot row is hot, the query runs on hot partitions
// only.
func (m *Manager) HotOnly(tables []string, fn func() error) error {
	m.mu.Lock()
	for _, t := range tables {
		m.hotOnly[t] = true
	}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		for _, t := range tables {
			delete(m.hotOnly, t)
		}
		m.mu.Unlock()
	}()
	return fn()
}

// CanRestrictJoinToHot reports whether a dependency rule couples child to
// parent such that joining the parent's hot rows needs only the child's
// hot partition (and vice versa).
func (m *Manager) CanRestrictJoinToHot(parent, child string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.rules[child]
	return ok && r.DependsOn != nil && r.DependsOn.ParentTable == parent
}

// Prune is the semantic partition pruner (installed as the engine's
// PruneHook): it removes the cold partition whenever a predicate of the
// query contradicts the aging rule's invariants. The invariants are
// summaries no statistic holds — every cold row's status is the closed
// one, and none is dated after maxDate — put to the test every min/max
// summary is put to.
func (m *Manager) Prune(entry *catalog.TableEntry, preds []sqlexec.Pred, parts []*catalog.Partition) []*catalog.Partition {
	m.mu.Lock()
	c, hasCold := m.cold[entry.Name]
	hotOnly := m.hotOnly[entry.Name]
	m.mu.Unlock()
	if !hasCold {
		return parts
	}
	drop := hotOnly
	if !drop {
		closed := value.String(c.rule.ClosedStatus)
		si := entry.Schema.ColIndex(c.rule.StatusCol)
		di := entry.Schema.ColIndex(c.rule.DateCol)
		for _, p := range preds {
			switch p.Col {
			case si:
				drop = drop || sqlexec.Refutes(p.Op, p.Lit, closed, closed)
			case di:
				// maxDate is the integer payload of the dates aged so far.
				if k := entry.Schema[di].Kind; k == value.KindInt || k == value.KindTime {
					drop = drop || sqlexec.Refutes(p.Op, p.Lit, value.Null, value.Value{K: k, I: c.maxDate})
				}
			}
		}
	}
	if !drop {
		return parts
	}
	kept := parts[:0:0]
	for _, p := range parts {
		if p != c.partition {
			kept = append(kept, p)
		}
	}
	return kept
}

// StatsPrune is the statistics-based baseline of §III: it knows only
// per-partition min/max of a numerically compared column — no business
// semantics. Status-equality queries cannot prune (strings overlap), only
// date ranges sometimes can.
func StatsPrune(eng *sqlexec.Engine) sqlexec.PruneHook {
	return func(entry *catalog.TableEntry, preds []sqlexec.Pred, parts []*catalog.Partition) []*catalog.Partition {
		kept := parts[:0:0]
		for _, p := range parts {
			if statsMayMatch(eng, p, preds) {
				kept = append(kept, p)
			}
		}
		return kept
	}
}

func statsMayMatch(eng *sqlexec.Engine, p *catalog.Partition, preds []sqlexec.Pred) bool {
	for _, pr := range preds {
		if !pr.Lit.Numeric() {
			continue
		}
		min, max := partitionMinMax(eng, p, pr.Col)
		if min.IsNull() || sqlexec.Refutes(pr.Op, pr.Lit, min, max) {
			return false // no non-NULL value there: nothing compares true
		}
	}
	return true
}

// partitionMinMax is the statistic: the least and greatest non-NULL value
// of a column among the partition's visible rows, NULL when there is none.
func partitionMinMax(eng *sqlexec.Engine, p *catalog.Partition, col int) (min, max value.Value) {
	snap := p.Table.Snapshot(eng.Mgr.Now())
	for pos := 0; pos < snap.NumRows(); pos++ {
		if !snap.Visible(pos) {
			continue
		}
		v := snap.Get(col, pos)
		if v.IsNull() {
			continue
		}
		if min.IsNull() || value.Compare(v, min) < 0 {
			min = v
		}
		if max.IsNull() || value.Compare(v, max) > 0 {
			max = v
		}
	}
	return min, max
}
