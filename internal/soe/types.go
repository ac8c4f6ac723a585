// Package soe implements the SAP HANA Scale-Out Extension of §IV: the
// service landscape of Figure 3 running over the simulated cluster
// network. Components and their paper names:
//
//	DataNode     — v2lqp: query service + data service over horizontal
//	               table partitions, with OLTP (synchronous log apply) and
//	               OLAP (asynchronous polling, bounded staleness) modes;
//	               each runs the column store's background merge daemon,
//	               so a hosted partition is compressed main plus a short
//	               delta (a node task pins its snapshot across a merge)
//	Broker       — v2transact: transaction broker serializing all writes
//	               into the CORFU-style shared log (package sharedlog)
//	ClusterCatalog — v2catalog: schemas + partition→node data discovery
//	Discovery    — v2disc&auth: service registry and token authorization
//	Coordinator  — v2dqp: translates SQL into a DAG of tasks executed by
//	               the query services (package distql holds the plan model)
//	Manager      — v2clustermgr: supervision, hotspot detection,
//	               partition movement
//	StatsService — v2stats: landscape-wide metrics aggregation over the
//	               per-node registries (package stats holds the registry,
//	               histogram and tracing primitives)
package soe

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/value"
)

// Message kinds of the SOE wire protocol.
const (
	MsgExec       = "exec"        // run SQL on a node's local engine
	MsgCreateTemp = "create_temp" // install a temp table (broadcast/shuffle)
	MsgApply      = "apply"       // push log entries (OLTP synchronous)
	MsgPoll       = "read_log"    // pull log entries (OLAP asynchronous)
	MsgCommit     = "commit"      // client -> broker
	MsgSnapshot   = "snapshot"    // fetch a partition snapshot from a peer
	MsgStatsPull  = "stats_pull"  // fetch a metrics-registry snapshot (v2stats)
	MsgCatchUp    = "catch_up"    // ask a replica to reach the log's tail
)

// ExecReq asks a query service to run local SQL, once. When Table is set the
// request is partition-scoped: the statement's scans of Table (and Table2
// for co-located joins) read the listed partitions and no other — the
// addressing mode the coordinator uses so a node hosting both primaries and
// replicas only scans the partitions a task names. A Partial request runs
// only the node's share of a distributed SELECT (sqlexec's QueryPartial).
type ExecReq struct {
	Token   string
	SQL     string
	Params  []value.Value // the values of SQL's $N
	Table   string        // logical table the scoping applies to
	Table2  string        // co-located join partner, scoped in lockstep
	Parts   []int         // partitions of Table (and Table2) to scan
	Partial bool
}

// ExecResp carries a result set plus the executing node's scan accounting,
// so the coordinator can attribute distributed query cost per task: rows
// examined and, when the node ran the query on the vectorized executor,
// the number of morsels its runners ran.
type ExecResp struct {
	Cols []string
	Rows []value.Row
	// State is a Partial task's aggregate fold state, when its plan
	// aggregates; Rows are empty then.
	State       []byte
	RowsScanned int
	Morsels     int
	// Completeness is set by the coordinator's client-facing endpoint:
	// the fraction of required coverage behind the rows (1.0 = complete).
	Completeness float64
	Err          string
}

// CreateTempReq installs a materialized temp relation on a node.
type CreateTempReq struct {
	Token string
	Name  string
	Cols  []string
	Kinds []uint8
	Rows  []value.Row
}

// CommitReq is one transaction's write set sent to the broker. TxnID, when
// non-empty, is an idempotency token: the broker remembers completed
// transactions by it, so a client retrying after a timeout (the simulated
// network cannot cancel an in-flight call) never applies the same write
// set twice.
type CommitReq struct {
	Token  string
	TxnID  string
	Writes []LogWrite
}

// CommitResp acknowledges with the log position the commit landed at;
// commitTS(Pos) is its commit timestamp.
type CommitResp struct {
	Pos uint64
	Err string
}

// LogWrite is one row operation of a write set, as a client states it.
type LogWrite struct {
	Table     string // logical table
	Partition int    // horizontal partition index
	Kind      uint8  // 0 insert, 1 delete-by-key
	Row       value.Row
	Key       string // delete key (value of the partition key column)
}

// LogEntry is one shared-log record as it travels to a node: Data is the
// commit's sections as the coordinator encoded them (wire.go has the
// layout) and Pos the position it was appended at, carried beside the
// bytes. The position is the commit's version: commitTS(Pos) stamps its
// rows, and a receiver resumes polling after it.
type LogEntry struct {
	Pos  uint64
	Data []byte
}

// ApplyReq pushes entries to an OLTP node.
type ApplyReq struct {
	Token   string
	Entries []LogEntry
}

// PollReq asks the broker for log entries from a position.
type PollReq struct {
	Token string
	From  uint64
	Max   int
}

// PollResp returns entries, the next poll position, and the log tail at
// serve time (lets pollers measure their apply backlog).
type PollResp struct {
	Entries []LogEntry
	Next    uint64
	Tail    uint64
	Err     string
}

// SnapshotReq asks a peer for the current contents of one partition.
type SnapshotReq struct {
	Token     string
	Table     string
	Partition int
}

// SnapshotResp carries the partition rows plus the serving node's
// watermark: NextPos, the log position below which every entry is in the
// rows — "retrieving the latest snapshot of the data hosted by a
// particular node" (§IV-B).
type SnapshotResp struct {
	Rows    []value.Row
	NextPos uint64
	Err     string
}

// CatchUpReq asks a replica-holding node to reach the log's tail before
// serving a failover read — every commit acknowledged before it asked —
// falling back to snapshot fetches from the listed peers (partition → node)
// when the log cannot take it there.
type CatchUpReq struct {
	Token string
	Table string
	Peers map[int]string
}

// StatsReq asks an endpoint for its metrics-registry snapshot (v2stats).
type StatsReq struct {
	Token string
}

// StatsResp carries a metrics snapshot — a node's own registry, or the
// merged landscape view when the v2stats service itself is asked.
type StatsResp struct {
	Snapshot stats.Snapshot
	Err      string
}

// The row-less control kinds — StatsPull, CatchUp — stay JSON: they
// are off every data path, and a StatsResp is a stats.Snapshot, whose shape
// belongs to package stats and already has JSON tags for /metrics.json.
// This file is the only one in the package that imports encoding/json.

func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Marshal refuses only a non-finite float, which of the control
		// messages only a StatsResp gauge can hold; the refusal travels in
		// the Err field every fallible control reply has.
		b, _ = json.Marshal(struct{ Err string }{err.Error()})
	}
	return append(dst, b...)
}

func (m StatsReq) appendWire(dst []byte) []byte   { return appendJSON(dst, m) }
func (m *StatsReq) readWire(b []byte) error       { return json.Unmarshal(b, m) }
func (m StatsResp) appendWire(dst []byte) []byte  { return appendJSON(dst, m) }
func (m *StatsResp) readWire(b []byte) error      { return json.Unmarshal(b, m) }
func (m CatchUpReq) appendWire(dst []byte) []byte { return appendJSON(dst, m) }
func (m *CatchUpReq) readWire(b []byte) error     { return json.Unmarshal(b, m) }

func errUnknownMsg(svc, kind string) error {
	return fmt.Errorf("soe: %s: unknown message %q", svc, kind)
}

// call performs a typed RPC; a nil req sends an empty body.
func call[T any, P wirePtr[T]](net *netsim.Network, from, to, kind string, req wireMsg) (T, error) {
	var payload []byte
	if req != nil {
		payload = encode(req)
	}
	return send[T, P](net, from, to, kind, payload)
}

// errTaskTimeout marks a call abandoned by its per-attempt deadline.
var errTaskTimeout = errors.New("soe: task timed out")

// send is an RPC with an already encoded request and its reply decoded as
// T, on the calling goroutine and with no deadline.
func send[T any, P wirePtr[T]](net *netsim.Network, from, to, kind string, payload []byte) (T, error) {
	resp, err := net.Call(from, to, netsim.Message{Kind: kind, Payload: payload})
	if err != nil {
		var zero T
		return zero, err
	}
	return decode[T, P](resp)
}
