package soe

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/netsim"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/value"
)

// Mode selects a node's consistency behavior (§IV-B): OLTP nodes apply
// the shared log synchronously inside the commit; OLAP nodes update
// themselves asynchronously by polling, trading freshness for throughput.
type Mode int

// Node modes.
const (
	OLTP Mode = iota
	OLAP
)

// DataNode is one v2lqp instance: a query service (local SQL over the
// hosted partitions) plus a data service (storing and serving horizontal
// partitions, applying the shared log).
type DataNode struct {
	Name   string
	Mode   Mode
	net    *netsim.Network
	disc   *Discovery
	ccat   *ClusterCatalog
	broker string

	eng *sqlexec.Engine

	mu     sync.Mutex
	hosted map[string]map[int]*hostedPart // table -> part -> the partition and its position
	warm   *extstore.Store                // node-local extended store, lazily created
	// pos is the node's watermark, the lowest position of a partition it
	// hosts (settle); AppliedTS is its timestamp.
	pos     uint64
	drainMu sync.Mutex // drains take turns

	// Per-node observability registry (v2stats pulls it via MsgStatsPull).
	// Hot-path metrics are cached as fields so the MsgExec path never
	// rebuilds name+label keys.
	obs         *stats.Registry
	cQueries    *stats.Counter
	cRowsScan   *stats.Counter
	cApplied    *stats.Counter
	cApplyRows  *stats.Counter
	cDecodeErr  *stats.Counter
	cDeleteScan *stats.Counter
	gAppliedTS  *stats.Gauge
	gHosted     *stats.Gauge
	gBacklog    *stats.Gauge
	hExec       *stats.Histogram

	// tracer records this node's side of distributed operations: exec and
	// catch-up requests arriving with a SpanContext continue the caller's
	// trace here. Nil disables (stand-alone nodes).
	tracer *stats.Tracer

	// sessions, scopes and params hold what finished node tasks ran on: the
	// closed sessions, which a task reopens (sqlexec.Engine.Reopen), the
	// taskScopes, and the slices their parameters were decoded into.
	sessions freeList[sqlexec.Session]
	scopes   freeList[taskScope]
	params   freeList[[]value.Value]

	pollStop chan struct{}
	// merger folds each hosted partition's delta into compressed main as it
	// passes the daemon's threshold: the node's manager owns the tables, the
	// daemon never takes n.mu. Nil while the node is stopped.
	merger *txn.Merger
}

// hostedPart is a hosted partition and the log position its rows hold
// through: every entry below pos is in them, none at or above. Every way a
// partition arrives hands its position over with its rows.
type hostedPart struct {
	*catalog.Partition
	pos uint64
}

// partTableName names a hosted partition — its catalog.Partition and the
// column-store table behind it — inside the logical table's entry.
func partTableName(table string, part int) string {
	return table + "__p" + strconv.Itoa(part)
}

// NewDataNode creates and registers a node on the network.
func NewDataNode(name string, mode Mode, net *netsim.Network, disc *Discovery, ccat *ClusterCatalog, broker string) *DataNode {
	n := &DataNode{
		Name: name, Mode: mode, net: net, disc: disc, ccat: ccat, broker: broker,
		eng:    sqlexec.NewEngine(),
		hosted: map[string]map[int]*hostedPart{},
		obs:    stats.NewRegistry("node=" + name),
	}
	n.cQueries = n.obs.Counter("soe_queries_total")
	n.cRowsScan = n.obs.Counter("soe_rows_scanned_total")
	n.cApplied = n.obs.Counter("soe_log_entries_applied_total")
	n.cApplyRows = n.obs.Counter("soe_apply_rows_total")
	n.cDecodeErr = n.obs.Counter("soe_log_decode_errors_total")
	n.cDeleteScan = n.obs.Counter("soe_delete_rows_searched_total")
	n.gAppliedTS = n.obs.Gauge("soe_applied_ts")
	n.gHosted = n.obs.Gauge("soe_partitions_hosted")
	n.gBacklog = n.obs.Gauge("soe_poll_backlog")
	n.settle(0, 0) // the gauge reads a fresh node's watermark
	n.hExec = n.obs.Histogram("soe_exec_ms")
	// The node-local SQL engine reports into the same registry, so parse/
	// plan/exec timings surface per node in the v2stats aggregate.
	n.eng.Obs = n.obs
	n.startMerger()
	net.Register(name, n.handle)
	disc.Announce("v2lqp/"+name, name)
	return n
}

// startMerger starts the node's background merge daemon with the daemon's
// own defaults, unless it is running.
func (n *DataNode) startMerger() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.merger == nil {
		n.merger = n.eng.Mgr.StartMerger(txn.MergerConfig{})
	}
}

// stopMerger stops the daemon and waits for a sweep in flight, which takes
// no lock of the node's. The one place a node's merger is stopped: a
// cluster shutting down and a manager stopping the node both come here.
func (n *DataNode) stopMerger() {
	n.mu.Lock()
	g := n.merger
	n.merger = nil
	n.mu.Unlock()
	if g != nil {
		g.Stop()
	}
}

// Obs exposes the node's metrics registry (tests, embedding).
func (n *DataNode) Obs() *stats.Registry { return n.obs }

// SetTracer attaches the landscape tracer so remote requests carrying a
// SpanContext continue their trace on this node; nil disables.
func (n *DataNode) SetTracer(t *stats.Tracer) { n.tracer = t }

// Engine exposes the node-local relational engine (tests, local tools).
func (n *DataNode) Engine() *sqlexec.Engine { return n.eng }

// SetExecutor configures the node-local executor: the mode (vectorized by
// default) and, for the vectorized mode, the morsel worker-pool size per
// query (<=0 means one worker per CPU). Cluster setups use it to pin
// per-partition scans to a known parallelism for experiments.
func (n *DataNode) SetExecutor(mode sqlexec.Mode, workers int) {
	n.eng.Mode = mode
	n.eng.Workers = workers
}

// attachPartition makes one physical partition a catalog partition of its
// logical table in the local engine, holding the log below pos: the seed
// rows, if any (a snapshot or a move), are what that prefix left in it.
// Caller holds n.mu.
func (n *DataNode) attachPartition(t *DistTable, p int, seed []value.Row, pos uint64) error {
	pname := partTableName(t.Name, p)
	store := columnstore.NewTable(pname, t.Schema)
	if len(seed) > 0 {
		store.ApplyInsert(seed, 1)
	}
	if _, ok := n.eng.Cat.Table(t.Name); !ok {
		// A catalog table is born with a partition of its own name; a
		// node's table holds the partitions it hosts and no other.
		if _, err := n.eng.Cat.CreateTable(t.Name, t.Schema); err != nil {
			return err
		}
		n.eng.Cat.DetachPartition(t.Name, t.Name)
	}
	part := &catalog.Partition{Name: pname, Table: store}
	if err := n.eng.Cat.AttachPartition(t.Name, part); err != nil {
		return err
	}
	n.eng.Mgr.Register(store)
	if n.hosted[t.Name] == nil {
		n.hosted[t.Name] = map[int]*hostedPart{}
	}
	n.hosted[t.Name][p] = &hostedPart{Partition: part, pos: pos}
	n.settle(0, 0)
	return nil
}

// detachPartition undoes attachPartition. Caller holds n.mu.
func (n *DataNode) detachPartition(table string, part int) {
	pname := partTableName(table, part)
	n.eng.Cat.DetachPartition(table, pname)
	n.eng.Mgr.Deregister(pname)
	delete(n.hosted[table], part)
	n.settle(0, 0)
}

// copyPartition reads a hosted partition's rows and the log position they
// hold through: no entry applies between the two. Caller holds n.mu.
func (n *DataNode) copyPartition(table string, part int) ([]value.Row, uint64, error) {
	res, _, err := n.queryParts(ExecReq{SQL: "SELECT * FROM " + table, Table: table, Parts: []int{part}})
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, n.hosted[table][part].pos, nil
}

// Unhost detaches a partition (after movement) and returns its rows and the
// log position they hold through.
func (n *DataNode) Unhost(table string, part int) ([]value.Row, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rows, pos, err := n.copyPartition(table, part)
	if err == nil {
		n.detachPartition(table, part)
	}
	return rows, pos, err
}

// HostReplica installs a read replica of one partition on this node even
// though the data-discovery map routes it elsewhere. It holds nothing, so
// its position is the log's start: a drain replays the log into it, or a
// snapshot fetch (CatchUpSnapshot) replaces it (§IV-B).
func (n *DataNode) HostReplica(t *DistTable, part int) error {
	return n.AcceptPartition(t, part, nil, 0)
}

// AcceptPartition installs a partition this node must not already host,
// with its rows and the log position they hold through (a move).
func (n *DataNode) AcceptPartition(t *DistTable, part int, rows []value.Row, pos uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosted[t.Name][part]; ok {
		return fmt.Errorf("soe: %s already hosts %s partition %d", n.Name, t.Name, part)
	}
	return n.attachPartition(t, part, rows, pos)
}

// CatchUpSnapshot replaces this node's copy of one partition with a fresh
// snapshot fetched from a peer — the fast alternative to replaying a long
// log suffix ("retrieving the latest snapshot of the data hosted by a
// particular node", §IV-B). The copy takes the position the peer's rows
// hold through, ahead of the node's watermark or behind it, and the log
// from there on reaches it like any partition's.
func (n *DataNode) CatchUpSnapshot(peer, table string, part int) error {
	resp, err := call[SnapshotResp](n.net, n.Name, peer, MsgSnapshot,
		SnapshotReq{Token: n.disc.Token(), Table: table, Partition: part})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("soe: snapshot from %s: %s", peer, resp.Err)
	}
	t, ok := n.ccat.Table(table)
	if !ok {
		return fmt.Errorf("soe: unknown table %q", table)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.detachPartition(table, part) // the copy it replaces, if any
	return n.attachPartition(t, part, resp.Rows, resp.NextPos)
}

// AppliedTS returns the node's watermark as a timestamp — that of the
// newest position below it: the staleness metric of experiment E7.
func (n *DataNode) AppliedTS() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return commitTS(n.pos) - 1
}

// settle moves every partition at a position in [from, next), a run it has
// taken, to next. The watermark becomes the lowest position (hosting none,
// next), the engine's clock the highest, so every row applied is visible;
// and the gauges follow. Caller holds n.mu.
func (n *DataNode) settle(from, next uint64) {
	lo, hi, hosted := ^uint64(0), uint64(0), 0
	for _, parts := range n.hosted {
		for _, hp := range parts {
			if from <= hp.pos && hp.pos < next {
				hp.pos = next
			}
			lo, hi, hosted = min(lo, hp.pos), max(hi, hp.pos), hosted+1
		}
	}
	if hosted == 0 {
		lo = max(n.pos, next)
		hi = lo
	}
	n.pos = lo
	n.eng.Mgr.AdvanceTo(commitTS(hi) - 1)
	n.gAppliedTS.Set(float64(commitTS(lo) - 1))
	n.gHosted.Set(float64(hosted))
}

// apply is the one apply rule, whatever the feed: a run of the log, the
// positions from up to next, whose data is entries (a position without one
// was filled). A partition at a position in the run takes the entries from
// there on and moves to next; one ahead takes nothing twice, one behind
// waits for a drain from its own position. An entry that does not decode
// is counted and stepped over like a fill; the error names the first.
// Caller holds n.mu.
func (n *DataNode) apply(from uint64, entries []LogEntry, next uint64) error {
	var firstErr error
	for _, e := range entries {
		if e.Pos >= n.pos {
			n.cApplied.Inc()
		}
		if err := n.applyEntry(from, e); err != nil {
			n.cDecodeErr.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("soe: %s: log entry at position %d: %w", n.Name, e.Pos, err)
			}
		}
	}
	n.settle(from, next)
	return firstErr
}

// applyEntry applies, stamped with its commit timestamp, the sections of
// e, in a run from from, that land on partitions at a position in [from,
// e.Pos] — nothing of it unless all of it decoded. Caller holds n.mu.
func (n *DataNode) applyEntry(from uint64, e LogEntry) error {
	secs, err := readEntry(e.Data, func(table []byte, part int) bool {
		hp, ok := n.hosted[string(table)][part]
		return ok && from <= hp.pos && hp.pos <= e.Pos
	})
	for _, s := range secs {
		store := n.hosted[s.table][s.part].Table
		if len(s.rows) > 0 {
			store.ApplyInsert(s.rows, commitTS(e.Pos))
			n.cApplyRows.Add(int64(len(s.rows)))
		}
		for _, key := range s.keys {
			n.deleteByKey(store, s.table, key, commitTS(e.Pos))
		}
	}
	return err
}

// deleteByKey stamps the rows of store whose key column reads key — the
// log carries a key as text — as deleted at ts. The text is coerced to the
// column's kind once, so the search is one FindRows: a dictionary or typed
// lookup over main and a comparison per row of the delta. The rows of the
// snapshot searched are counted, once per key.
func (n *DataNode) deleteByKey(store *columnstore.Table, table, key string, ts uint64) {
	t, ok := n.ccat.Table(table)
	if !ok {
		return
	}
	snap := store.Snapshot(ts)
	n.cDeleteScan.Add(int64(snap.NumRows()))
	for _, pos := range snap.FindRows(t.KeyIndex(), t.keyValue(key)) {
		store.ApplyDelete(snap.ID(pos), ts)
	}
}

// push applies entries the broker pushed (OLTP), each a run of its own: in
// place at the watermark, the serial commit case, else through a drain.
func (n *DataNode) push(entries []LogEntry) error {
	var err error
	for i, e := range entries {
		n.mu.Lock()
		err = errors.Join(err, n.apply(e.Pos, entries[i:i+1], e.Pos+1))
		behind := n.pos <= e.Pos
		n.mu.Unlock()
		if behind {
			err = errors.Join(err, n.drain(e.Pos+1))
		}
	}
	return err
}

// PollOnce reads up to max log entries from the node's watermark and
// applies them, one step of a drain, answering how many it read; an entry
// that would not decode is an error, after the rest have been applied.
func (n *DataNode) PollOnce(max int) (int, error) {
	read, _, err := n.poll(max)
	return read, err
}

// poll is PollOnce answering the log's tail too; an error reaching the
// broker is errBehind.
func (n *DataNode) poll(max int) (read int, tail uint64, err error) {
	n.mu.Lock()
	from := n.pos
	n.mu.Unlock()
	resp, err := call[PollResp](n.net, n.Name, n.broker, MsgPoll, PollReq{Token: n.disc.Token(), From: from, Max: max})
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("%w: poll: %v", errBehind, err)
	}
	n.mu.Lock()
	err = n.apply(from, resp.Entries, resp.Next)
	n.mu.Unlock()
	// OLAP apply lag: log entries still ahead of this node after the poll
	// — the measured form of the bounded-staleness trade-off (§IV-B).
	n.gBacklog.Set(float64(resp.Tail - min(resp.Tail, resp.Next)))
	return len(resp.Entries), resp.Tail, err
}

// appendWait bounds a drain's wait on a position still being appended (an
// append fills a position it cannot write, so no hole outlives it).
const appendWait = 100 * time.Millisecond

// toTail asks a drain for the log's tail.
const toTail = ^uint64(0)

// errBehind is a node that could not read the log to where it was asked.
var errBehind = errors.New("soe: node behind the log")

// drain is every feed but the in-place push: RecoverNode, SyncOLAP, a
// failover catch-up, the OLAP poller, a push ahead of the watermark. It
// polls until the watermark reaches to, or the log's tail as its first poll
// finds it — every commit acknowledged before it began — stepping over
// fills and waiting appendWait on a position in flight; short of that it
// answers errBehind. Drains take turns.
func (n *DataNode) drain(to uint64) error {
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	var decodeErr error
	var since time.Time
	for last := toTail; ; {
		n.mu.Lock()
		at := n.pos
		n.mu.Unlock()
		switch {
		case at >= to:
			return decodeErr
		case at != last:
			last, since = at, time.Now()
		case time.Since(since) > appendWait:
			return errors.Join(decodeErr, fmt.Errorf("%w: %s stopped at position %d", errBehind, n.Name, at))
		default:
			time.Sleep(100 * time.Microsecond)
		}
		_, tail, err := n.poll(4096)
		if errors.Is(err, errBehind) {
			return errors.Join(decodeErr, err)
		}
		if decodeErr == nil {
			decodeErr = err
		}
		to = min(to, tail)
	}
}

// StartPolling launches the OLAP update loop at the given interval.
func (n *DataNode) StartPolling(interval time.Duration) {
	n.mu.Lock()
	if n.pollStop != nil {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	n.pollStop = stop
	n.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n.drain(toTail)
			}
		}
	}()
}

// StopPolling halts the update loop.
func (n *DataNode) StopPolling() {
	n.mu.Lock()
	if n.pollStop != nil {
		close(n.pollStop)
		n.pollStop = nil
	}
	n.mu.Unlock()
}

// handle is the node's network dispatcher.
func (n *DataNode) handle(from string, req netsim.Message) (netsim.Message, error) {
	switch req.Kind {
	case MsgExec:
		return n.exec(req)

	case MsgCatchUp:
		r, err := decode[CatchUpReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !n.disc.Validate(r.Token) {
			return netsim.Message{Kind: MsgCatchUp, Payload: encode(ExecResp{Err: "unauthorized"})}, nil
		}
		sp := n.tracer.StartRemote("catch_up", req.Trace)
		sp.AddString("node", n.Name)
		pl := sp.Child("poll_log")
		err = n.drain(toTail)
		pl.Finish()
		// Snapshot fallback: a node the log could not bring to its tail
		// fetches the partitions wholesale from live peers.
		if errors.Is(err, errBehind) {
			for part, peer := range r.Peers {
				sf := sp.Child("snapshot_fetch")
				sf.AddString("peer", peer)
				sf.AddInt("part", part)
				n.CatchUpSnapshot(peer, r.Table, part)
				sf.Finish()
			}
		}
		sp.Finish()
		return netsim.Message{Kind: MsgCatchUp, Payload: encode(ExecResp{})}, nil

	case MsgCreateTemp:
		r, err := decode[CreateTempReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !n.disc.Validate(r.Token) {
			return netsim.Message{Kind: MsgCreateTemp, Payload: encode(ExecResp{Err: "unauthorized"})}, nil
		}
		if err := n.createTemp(r); err != nil {
			return netsim.Message{Kind: MsgCreateTemp, Payload: encode(ExecResp{Err: err.Error()})}, nil
		}
		return netsim.Message{Kind: MsgCreateTemp, Payload: encode(ExecResp{})}, nil

	case MsgApply:
		r, err := decode[ApplyReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !n.disc.Validate(r.Token) {
			return netsim.Message{Kind: MsgApply, Payload: encode(ExecResp{Err: "unauthorized"})}, nil
		}
		if err := n.push(r.Entries); err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Kind: MsgApply, Payload: encode(ExecResp{})}, nil

	case MsgSnapshot:
		r, err := decode[SnapshotReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !n.disc.Validate(r.Token) {
			return netsim.Message{Kind: MsgSnapshot, Payload: encode(SnapshotResp{Err: "unauthorized"})}, nil
		}
		n.mu.Lock()
		rows, pos, err := n.copyPartition(r.Table, r.Partition)
		n.mu.Unlock()
		resp := SnapshotResp{Rows: rows, NextPos: pos}
		if err != nil {
			resp = SnapshotResp{Err: err.Error()}
		}
		return netsim.Message{Kind: MsgSnapshot, Payload: encode(resp)}, nil

	case MsgStatsPull:
		r, err := decode[StatsReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !n.disc.Validate(r.Token) {
			return netsim.Message{Kind: MsgStatsPull, Payload: encode(StatsResp{Err: "unauthorized"})}, nil
		}
		return netsim.Message{Kind: MsgStatsPull, Payload: encode(StatsResp{Snapshot: n.obs.Snapshot()})}, nil
	}
	return netsim.Message{}, errUnknownMsg(n.Name, req.Kind)
}

// exec runs one node task (MsgExec) and answers it. The task continues the
// coordinator's trace: an "exec" span whose remote parent is the task span
// that sent it, and under it a "scan" span naming the partitions it lists.
func (n *DataNode) exec(req netsim.Message) (netsim.Message, error) {
	var r ExecReq
	params := n.params.get()
	if params == nil {
		params = new([]value.Value)
	}
	r.Params = *params
	defer func() {
		clear(r.Params)
		*params = r.Params[:0]
		n.params.put(params)
	}()
	if err := decodeErr(req.Kind, r.readWireText(req.Payload, n.eng.SQLText)); err != nil {
		return netsim.Message{}, err
	}
	if !n.disc.Validate(r.Token) {
		return netsim.Message{Kind: MsgExec, Payload: encode(ExecResp{Err: "unauthorized"})}, nil
	}
	t0 := time.Now()
	sp := n.tracer.StartRemote("exec", req.Trace)
	sp.AddString("node", n.Name)
	// A task is one statement: one pinned snapshot and one plan, however
	// many partitions it lists.
	sc := sp.Child("scan")
	if r.Table != "" {
		sc.AddInts("partitions", r.Parts)
	}
	res, state, err := n.queryParts(r)
	sc.Finish()
	var resp ExecResp
	if err != nil {
		resp = ExecResp{Err: err.Error()}
		sp.AddString("error", resp.Err)
	} else {
		resp = ExecResp{
			Rows: res.Rows, State: state,
			RowsScanned: res.Stats.RowsScanned, Morsels: res.Stats.Morsels,
		}
		if !r.Partial { // a Partial task's columns are the coordinator's plan's
			resp.Cols = res.Cols
		}
		sp.AddInt("rows_scanned", resp.RowsScanned)
	}
	sp.Finish()
	if resp.Err == "" {
		n.cQueries.Inc()
		n.cRowsScan.Add(int64(resp.RowsScanned))
		n.hExec.ObserveSince(t0)
	}
	return netsim.Message{Kind: MsgExec, Payload: encode(resp)}, nil
}

// queryParts runs one task's statement on the node's engine — a Partial
// one up to its plan's cut, with the fold state that produces. A scoped
// task (Table set) reads Table (and Table2, a co-located join's partner)
// pruned to the listed partitions, in the order listed; whatever else the
// statement names — a broadcast or shuffle temp — is read whole. This is
// the coordinator's partition-addressed execution mode: a node hosting
// primaries and replicas of one table reads exactly the partitions the
// task names, never double-counting. A listed partition the planned table
// does not hold fails the task, because the coordinator counts every listed
// one as covered. The task runs on a session of the node's free list,
// reopened: registered (sys.m_sessions) only while it runs, and holding
// nothing of the task before it.
func (n *DataNode) queryParts(r ExecReq) (*sqlexec.Result, []byte, error) {
	s := n.sessions.get()
	if s == nil {
		s = n.eng.NewSession()
	} else {
		n.eng.Reopen(s)
	}
	defer n.sessions.put(s)
	defer s.Close()
	var sc *taskScope
	if r.Table != "" {
		if sc = n.scopes.get(); sc == nil {
			sc = &taskScope{kept: make([]*catalog.Partition, 0, 8)}
			sc.hook = sc.prune
		}
		sc.table, sc.table2, sc.parts, sc.missing = r.Table, r.Table2, r.Parts, -1
		s.Scope = sc.hook
		defer sc.release(&n.scopes)
	}
	var res *sqlexec.Result
	var state []byte
	var err error
	if r.Partial {
		res, state, err = s.QueryPartial(r.SQL, r.Params...)
	} else {
		res, err = s.Query(r.SQL, r.Params...)
	}
	if sc != nil && sc.missing >= 0 {
		return nil, nil, fmt.Errorf("soe: %s does not host partition %d", n.Name, sc.missing)
	}
	return res, state, err
}

// taskScope is a scoped task's Scope: it narrows the scans of the task's
// table (and of a co-located join's partner) to the partitions the task
// lists. A node keeps them on a free list, hook bound once, and a task
// borrows one for its statement: every scoped scan's list is a window of
// kept, which the run reads until the statement is done.
type taskScope struct {
	table, table2 string
	parts         []int
	missing       int // a listed partition the planned table does not hold, or -1
	kept          []*catalog.Partition
	hook          sqlexec.PruneHook // prune
}

func (sc *taskScope) prune(entry *catalog.TableEntry, _ []sqlexec.Pred, hosted []*catalog.Partition) []*catalog.Partition {
	if entry.Name != sc.table && entry.Name != sc.table2 {
		return hosted
	}
	start := len(sc.kept)
	for _, p := range sc.parts {
		name := partTableName(entry.Name, p)
		i := slices.IndexFunc(hosted, func(h *catalog.Partition) bool { return h.Name == name })
		if i < 0 {
			sc.missing = p
			continue
		}
		sc.kept = append(sc.kept, hosted[i])
	}
	// Never nil, which a scan reads as "every partition".
	return sc.kept[start:len(sc.kept):len(sc.kept)]
}

// release returns sc to free once its statement is done, holding no
// partition and no task's list.
func (sc *taskScope) release(free *freeList[taskScope]) {
	clear(sc.kept)
	sc.kept, sc.parts = sc.kept[:0], nil
	free.put(sc)
}

func (n *DataNode) createTemp(r CreateTempReq) error {
	if len(r.Kinds) != len(r.Cols) {
		return fmt.Errorf("soe: temp %s: %d column kinds for %d columns", r.Name, len(r.Kinds), len(r.Cols))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	schema := make(columnstore.Schema, len(r.Cols))
	for i := range r.Cols {
		schema[i] = columnstore.ColumnDef{Name: r.Cols[i], Kind: value.Kind(r.Kinds[i])}
	}
	entry, ok := n.eng.Cat.Table(r.Name)
	if ok && !r.Append {
		n.eng.Cat.DropTable(r.Name)
		n.eng.Mgr.Deregister(r.Name)
		ok = false
	}
	if !ok {
		created, err := n.eng.Cat.CreateTable(r.Name, schema)
		if err != nil {
			return err
		}
		n.eng.Mgr.Register(created.Primary())
		entry = created
	}
	entry.Primary().ApplyInsert(r.Rows, n.eng.Mgr.Now())
	return nil
}

// DropTemp removes a temp relation after a distributed query completes.
func (n *DataNode) DropTemp(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.eng.Cat.DropTable(name)
	n.eng.Mgr.Deregister(name)
}
