package soe

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/sharedlog"
	"repro/internal/stats"
)

// Broker is the v2transact service: it "executes, serializes, and
// persists transactions to a distributed shared log". Commit requests land
// in the log, whose position totally orders them and is their commit
// timestamp (commitTS), and are pushed synchronously to OLTP nodes; OLAP
// nodes pull through MsgPoll. This decouples the transaction mechanism
// from query processing (§IV-B).
type Broker struct {
	Name string
	net  *netsim.Network
	disc *Discovery
	log  *sharedlog.Log

	mu        sync.Mutex
	oltpNodes []string

	// callers make the OLTP pushes.
	callers callers

	commits atomic.Int64

	// Idempotency cache: completed transactions by client token, so a
	// retried commit (timeout after the append landed) is answered from
	// here instead of being applied twice. pending serializes concurrent
	// retries of the same in-flight transaction.
	cmu     sync.Mutex
	done    map[string]CommitResp
	order   []string
	pending map[string]chan struct{}

	obs    *stats.Registry
	tracer *stats.Tracer
}

// maxTxnCache bounds the idempotency cache (FIFO eviction). A client
// retries within its backoff window, so only recent transactions matter.
const maxTxnCache = 4096

// NewBroker creates and registers the broker on the network.
func NewBroker(name string, net *netsim.Network, disc *Discovery, log *sharedlog.Log) *Broker {
	b := &Broker{
		Name: name, net: net, disc: disc, log: log, callers: callers{net: net},
		done: map[string]CommitResp{}, pending: map[string]chan struct{}{},
	}
	net.Register(name, b.handle)
	disc.Announce("v2transact", name)
	return b
}

// Instrument attaches the landscape registry and tracer; nil disables.
func (b *Broker) Instrument(reg *stats.Registry, tracer *stats.Tracer) {
	b.mu.Lock()
	b.obs, b.tracer = reg, tracer
	b.mu.Unlock()
}

// AddOLTPNode subscribes a node to synchronous apply.
func (b *Broker) AddOLTPNode(node string) {
	b.mu.Lock()
	b.oltpNodes = append(b.oltpNodes[:len(b.oltpNodes):len(b.oltpNodes)], node)
	b.mu.Unlock()
}

// Commits returns the number of committed transactions.
func (b *Broker) Commits() int64 { return b.commits.Load() }

// commitTS is the commit timestamp of the log entry at pos. The log
// position is the version, as in Tango over CORFU: one sequencer orders
// commits and stamps them in the same step. The offset makes the first
// commit (position 0) read 2, above the timestamp 1 of a node's fresh
// clock and of the rows a partition is seeded with.
func commitTS(pos uint64) uint64 { return pos + 2 }

// commit serializes one write set: log append, synchronous OLTP push.
// sections is the body of the client's MsgCommit exactly as the
// coordinator encoded it, and is the log entry as it is: the broker never
// looks inside, so what a commit costs here does not depend on its rows.
// When the MsgCommit carried a SpanContext the commit span — and the
// shared-log append under it — lands in the client's trace tree; a zero
// context starts a fresh trace.
func (b *Broker) commit(writes int, sections []byte, tc stats.SpanContext) (pos uint64, err error) {
	b.mu.Lock()
	obs, tracer := b.obs, b.tracer
	b.mu.Unlock()
	t0 := time.Now()
	span := tracer.StartRemote("commit", tc, "service=v2transact")
	span.AddInt("writes", writes)
	defer span.Finish()

	app := span.Child("log_append")
	pos, err = b.log.Append(sections)
	if err != nil {
		// The log client repairs transient failures itself (hole fills,
		// epoch adoption), so an error here means the configuration moved
		// under this broker — a Seal/Reconfigure fenced its epoch. Re-sync
		// with the units and retry once before failing the commit.
		obs.Counter("soe_commit_log_recoveries_total", "service=v2transact").Inc()
		b.log.Reseal()
		pos, err = b.log.Append(sections)
	}
	app.Finish()
	if err != nil {
		return 0, err
	}
	b.commits.Add(1)
	obs.Counter("soe_commits_total", "service=v2transact").Inc()
	obs.Counter("soe_commit_bytes_total", "service=v2transact").Add(int64(len(sections)))

	// OLTP nodes update "during the update transaction": synchronous push
	// before the commit is acknowledged, to every node at once, so a commit
	// is four message latencies deep whatever the node count. Each push runs
	// on a caller of the broker's; one payload, encoded into the first
	// one's buffer, serves all targets, and every node answers into its
	// caller's own. A crashed OLTP node must not block commits
	// (availability over consistency, §IV-B), so a failed push is not a
	// failed commit; the node catches up from the log on recovery.
	b.mu.Lock()
	targets := b.oltpNodes // replaced, never written, by AddOLTPNode
	b.mu.Unlock()
	push := span.Child("oltp_push")
	push.AddInt("targets", len(targets))
	var buf [8]*caller
	pushes := buf[:0]
	var payload []byte
	for _, node := range targets {
		cl := b.callers.get()
		if payload == nil {
			cl.req = ApplyReq{Token: b.disc.Token(), Entries: []LogEntry{{Pos: pos, Data: sections}}}.appendWire(cl.req[:0])
			payload = cl.req
		}
		cl.lend(b.Name, node, netsim.Message{Kind: MsgApply, Payload: payload}, 0)
		pushes = append(pushes, cl)
	}
	for _, cl := range pushes {
		cl.wait()
	}
	for _, cl := range pushes { // after every push: they share the first one's request
		b.callers.put(cl)
	}
	push.Finish()
	obs.Histogram("soe_commit_ms", "service=v2transact").ObserveSince(t0)
	return pos, nil
}

// commitIdempotent wraps commit with transaction-token deduplication. A
// retried request for a completed transaction returns the original
// position; a retry racing its own still-running original
// (the network cannot cancel in-flight calls) waits for it instead of
// committing a duplicate. Failed commits are not cached — the client's
// next retry re-attempts them.
func (b *Broker) commitIdempotent(txnID string, writes int, sections []byte, tc stats.SpanContext) CommitResp {
	if txnID == "" {
		pos, err := b.commit(writes, sections, tc)
		if err != nil {
			return CommitResp{Err: err.Error()}
		}
		return CommitResp{Pos: pos}
	}
	for {
		b.cmu.Lock()
		if resp, ok := b.done[txnID]; ok {
			b.cmu.Unlock()
			b.mu.Lock()
			obs, tracer := b.obs, b.tracer
			b.mu.Unlock()
			obs.Counter("soe_commit_dedup_total", "service=v2transact").Inc()
			// Record the dedup hit in the caller's trace: a retried commit
			// answered from the transaction cache is an event worth seeing.
			if tc.Valid() {
				tracer.StartRemote("commit", tc, "service=v2transact", "dedup=true").Finish()
			}
			return resp
		}
		if ch, ok := b.pending[txnID]; ok {
			b.cmu.Unlock()
			<-ch // original finished (or failed); re-check the cache
			continue
		}
		ch := make(chan struct{})
		b.pending[txnID] = ch
		b.cmu.Unlock()

		pos, err := b.commit(writes, sections, tc)

		b.cmu.Lock()
		delete(b.pending, txnID)
		var resp CommitResp
		if err != nil {
			resp = CommitResp{Err: err.Error()}
		} else {
			resp = CommitResp{Pos: pos}
			b.done[txnID] = resp
			b.order = append(b.order, txnID)
			if len(b.order) > maxTxnCache {
				delete(b.done, b.order[0])
				b.order = b.order[1:]
			}
		}
		b.cmu.Unlock()
		close(ch)
		return resp
	}
}

func (b *Broker) handle(from string, req netsim.Message) (netsim.Message, error) {
	switch req.Kind {
	case MsgCommit:
		token, txnID, writes, sections, err := commitHeader(req.Payload)
		if err != nil {
			return netsim.Message{}, err
		}
		if !b.disc.Validate(token) {
			return reply(req, CommitResp{Err: "unauthorized"}), nil
		}
		return reply(req, b.commitIdempotent(txnID, writes, sections, req.Trace)), nil

	case MsgPoll:
		r, err := decode[PollReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !b.disc.Validate(r.Token) {
			return reply(req, PollResp{Err: "unauthorized"}), nil
		}
		// Entries as the log holds them, each beside its position: decoding
		// — and reporting an entry that will not decode — is the poller's.
		raw, positions, next := b.log.ReadFrom(r.From, r.Max)
		resp := PollResp{Entries: make([]LogEntry, len(raw)), Next: next, Tail: b.log.Tail()}
		for i, d := range raw {
			resp.Entries[i] = LogEntry{Pos: positions[i], Data: d}
		}
		return reply(req, resp), nil
	}
	return netsim.Message{}, errUnknownMsg(b.Name, req.Kind)
}
