package core

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/federation"
	"repro/internal/txn"
	"repro/internal/value"
)

// Dynamic tiering (Figure 1): data moves along the temperature spectrum —
// hot in-memory partitions, extended storage, and the HDFS tier — while
// staying transparently queryable through the logical table. A tier is a
// page store (Ecosystem.Warm, Ecosystem.Cold): a policy run moves rows into
// the tier's partition and pages that partition out to the tier's store.
// Rows landing on the HDFS tier are additionally written as CSV files so
// the plain Hadoop stack (file reader, MapReduce, Hive) can consume them
// (§IV-C).

// TierPolicy drives TierByTemperature.
type TierPolicy struct {
	Table   string
	DateCol string
	// Rows older than ExtendedAfter move to extended storage; older than
	// HDFSAfter move to the HDFS tier. HDFSAfter must be >= ExtendedAfter.
	ExtendedAfter time.Duration
	HDFSAfter     time.Duration
}

// TierByTemperature applies a policy at time now, returning rows moved per
// tier. Source rows are chosen by partition, not by tier: a tier partition
// a merge re-hydrated since the last run reads hot, yet its rows stay put,
// and the run pages it out again.
func (e *Ecosystem) TierByTemperature(p TierPolicy, now time.Time) (toExtended, toHDFS int, err error) {
	entry, ok := e.Engine.Cat.Table(p.Table)
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown table %q", p.Table)
	}
	di := entry.Schema.ColIndex(p.DateCol)
	if di < 0 {
		return 0, 0, fmt.Errorf("core: column %q not in %s", p.DateCol, p.Table)
	}
	if p.HDFSAfter < p.ExtendedAfter {
		return 0, 0, fmt.Errorf("core: HDFSAfter must be >= ExtendedAfter")
	}
	ext, err := e.tierPartition(entry, catalog.TierExtended)
	if err != nil {
		return 0, 0, err
	}
	extCut := now.Add(-p.ExtendedAfter).UnixMicro()
	hdfsCut := now.Add(-p.HDFSAfter).UnixMicro()

	var hdfsPart *catalog.Partition
	if e.HDFS != nil {
		hdfsPart, err = e.tierPartition(entry, catalog.TierHDFS)
		if err != nil {
			return 0, 0, err
		}
	}
	// Cold partitions carry range bounds on the date column so the
	// optimizer can prune them for recent-data queries: every row moved
	// there satisfies DateCol <= cutoff.
	widenBound(ext, p.DateCol, extCut)
	if hdfsPart != nil {
		widenBound(hdfsPart, p.DateCol, hdfsCut)
	}
	// An attach publishes a new entry; walk the list as it is now.
	if cur, ok := e.Engine.Cat.Table(p.Table); ok {
		entry = cur
	}

	var hdfsRows []value.Row
	_, err = e.Engine.Mgr.RunInTxn(func(tx *txn.Txn) error {
		for _, part := range entry.Partitions {
			snap, err := tx.SnapshotTable(part.Table.Name())
			if err != nil {
				return err
			}
			for pos := 0; pos < snap.NumRows(); pos++ {
				if !snap.Visible(pos) {
					continue
				}
				d := snap.Get(di, pos).AsInt()
				var target *catalog.Partition
				switch {
				case hdfsPart != nil && d <= hdfsCut:
					target = hdfsPart
				case d <= extCut && part != ext && part != hdfsPart:
					target = ext
				}
				if target == nil || target == part {
					continue
				}
				row := snap.Row(pos)
				if err := tx.Delete(part.Table.Name(), snap.ID(pos)); err != nil {
					return err
				}
				if err := tx.Insert(target.Table.Name(), row); err != nil {
					return err
				}
				if target == hdfsPart {
					hdfsRows = append(hdfsRows, row)
					toHDFS++
				} else {
					toExtended++
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	wm := e.Engine.Mgr.MinActiveTS()
	if err := demote(e.Warm, ext, wm); err != nil {
		return toExtended, toHDFS, err
	}
	if hdfsPart != nil {
		if err := demote(e.Cold, hdfsPart, wm); err != nil {
			return toExtended, toHDFS, err
		}
	}

	// Mirror HDFS-tier rows as CSV for the Hadoop-side consumers.
	if len(hdfsRows) > 0 && e.HDFS != nil {
		var buf []byte
		for _, r := range hdfsRows {
			buf = append(buf, federation.CSVLine(r)...)
			buf = append(buf, '\n')
		}
		path := fmt.Sprintf("/tiering/%s/%d.csv", p.Table, e.Engine.Mgr.Now())
		if err := e.HDFS.WriteFile(path, buf); err != nil {
			return toExtended, toHDFS, err
		}
	}
	return toExtended, toHDFS, nil
}

// widenBound records (or widens) the upper date bound of a cold partition.
func widenBound(p *catalog.Partition, dateCol string, cutoff int64) {
	hi := value.Int(cutoff + 1) // rows satisfy DateCol <= cutoff, i.e. < cutoff+1
	if p.PruneCol == dateCol && !p.Hi.IsNull() && value.Compare(p.Hi, hi) >= 0 {
		return
	}
	p.PruneCol = dateCol
	p.Lo = value.Null
	p.Hi = hi
}

// demote pages a tier partition out to its store, once it holds rows.
func demote(store *extstore.Store, p *catalog.Partition, minActiveTS uint64) error {
	if p.Table.NumRows() == 0 {
		return nil
	}
	if err := store.Demote(p, minActiveTS); err != nil {
		return fmt.Errorf("core: demote %s: %w", p.Name, err)
	}
	return nil
}

// tierPartition finds or creates the table's partition for a tier.
func (e *Ecosystem) tierPartition(entry *catalog.TableEntry, tier catalog.Tier) (*catalog.Partition, error) {
	name := fmt.Sprintf("%s_%s", entry.Name, tier)
	for _, p := range entry.Partitions {
		if p.Name == name {
			return p, nil
		}
	}
	p := &catalog.Partition{Name: name, Table: columnstore.NewTable(name, entry.Schema)}
	if err := e.Engine.Cat.AttachPartition(entry.Name, p); err != nil {
		return nil, err
	}
	e.Engine.Mgr.Register(p.Table)
	return p, nil
}

// TierCounts reports live rows per tier for a table.
func (e *Ecosystem) TierCounts(table string) (map[catalog.Tier]int, error) {
	entry, ok := e.Engine.Cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	ts := e.Engine.Mgr.Now()
	out := map[catalog.Tier]int{}
	for _, p := range entry.Partitions {
		out[p.Tier()] += p.Table.Snapshot(ts).LiveRows()
	}
	return out, nil
}
