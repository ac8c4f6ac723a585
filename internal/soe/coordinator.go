package soe

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/distql"
	"repro/internal/netsim"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// Coordinator is the v2dqp service: it accepts queries, translates each
// into a DAG of tasks (scan/partial-agg tasks on query services, shuffle
// and broadcast data movement, a final merge), and drives execution.
type Coordinator struct {
	Name string
	net  *netsim.Network
	disc *Discovery
	ccat *ClusterCatalog

	broker  string
	queryID atomic.Uint64
	txnSeq  atomic.Uint64

	// BroadcastThreshold: a join side with at most this many estimated
	// rows is broadcast instead of repartitioned.
	BroadcastThreshold int

	// Retry shapes the per-task fault-tolerance loop; zero fields take
	// DefaultRetryPolicy values.
	Retry RetryPolicy

	// PartialResults selects degraded mode: when coverage is lost and no
	// replica can serve it, return what survived (labelled with its
	// completeness fraction) instead of failing the query.
	PartialResults bool

	// reg is the function registry the coordinator plans and finishes
	// statements with: the engine's builtins.
	reg *sqlexec.Registry
	// parses holds the parses of the SELECT texts clients repeat.
	parses sqlexec.ParseCache
	// finishes lends the plans above the cut their run state (finish).
	finishes sqlexec.FinishPool
	// callers make every remote call a query or a commit sends with a
	// deadline; runs keeps the released fan-outs' state (fan).
	callers callers
	runs    freeList[fanRun]

	obs    *stats.Registry
	tracer *stats.Tracer
}

// RetryPolicy bounds the fault-tolerance loop around every remote task.
type RetryPolicy struct {
	MaxAttempts int           // attempts per target before failover
	TaskTimeout time.Duration // per-attempt deadline (<0 disables)
	BaseBackoff time.Duration // first retry delay; doubles per attempt
	MaxBackoff  time.Duration // backoff cap
}

// DefaultRetryPolicy is in force where Coordinator.Retry leaves zeros.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	TaskTimeout: 2 * time.Second,
	BaseBackoff: time.Millisecond,
	MaxBackoff:  50 * time.Millisecond,
}

// retry returns the effective policy with defaults filled in.
func (c *Coordinator) retry() RetryPolicy {
	p := c.Retry
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.TaskTimeout == 0 {
		p.TaskTimeout = DefaultRetryPolicy.TaskTimeout
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRetryPolicy.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	return p
}

// backoff sleeps before the (attempt+1)-th try: capped exponential with
// full jitter, so synchronized retry storms against a recovering service
// spread out.
func (p RetryPolicy) backoff(attempt int) {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// retryable classifies errors the fault-tolerance loop may act on: the
// request never reached a healthy handler (crash, partition) or was
// abandoned by its deadline. Application-level errors are never retried.
func retryable(err error) bool {
	return netsim.IsUnavailable(err) || errors.Is(err, errTaskTimeout)
}

// sqlError is an application-level failure from a node's engine: the query
// itself is wrong, so retrying or failing over cannot help.
type sqlError struct{ node, msg string }

func (e *sqlError) Error() string { return fmt.Sprintf("soe: %s: %s", e.node, e.msg) }

func isSQLError(err error) bool {
	var se *sqlError
	return errors.As(err, &se)
}

// Instrument attaches the landscape registry and tracer. Call during
// boot, before the coordinator serves queries; nil receivers in the
// stats package make uninstrumented coordinators free.
func (c *Coordinator) Instrument(reg *stats.Registry, tracer *stats.Tracer) {
	c.obs, c.tracer = reg, tracer
}

// NewCoordinator creates and registers a coordinator.
func NewCoordinator(name string, net *netsim.Network, disc *Discovery, ccat *ClusterCatalog, broker string) *Coordinator {
	c := &Coordinator{Name: name, net: net, disc: disc, ccat: ccat, broker: broker, BroadcastThreshold: 10_000, reg: sqlexec.NewRegistry(), callers: callers{net: net}}
	net.Register(name, func(from string, req netsim.Message) (netsim.Message, error) {
		// Clients reach the coordinator through MsgExec.
		if req.Kind != MsgExec {
			return netsim.Message{}, fmt.Errorf("soe: coordinator: unknown message %q", req.Kind)
		}
		r, err := decode[ExecReq](req)
		if err != nil {
			return netsim.Message{}, err
		}
		if !disc.Validate(r.Token) {
			return reply(req, ExecResp{Err: "unauthorized"}), nil
		}
		// Continue the client's trace (if its message carried one): the
		// whole distributed execution lands under the caller's TraceID.
		res, _, err := c.query(req.Trace, r.SQL, r.Params, chosen)
		if err != nil {
			return reply(req, ExecResp{Err: err.Error()}), nil
		}
		return reply(req, ExecResp{Cols: res.Cols, Rows: res.Rows, Completeness: res.Completeness}), nil
	})
	disc.Announce("v2dqp", name)
	return c
}

// Result is a distributed query result. Completeness is the fraction of
// required partition coverage that contributed rows: 1.0 for a complete
// answer (including answers completed through replica failover), less when
// the coordinator ran in degraded mode and some coverage was unreachable.
// Lost describes the coverage that could not be served.
type Result struct {
	Cols []string
	Rows []value.Row

	Completeness float64
	Partial      bool
	Lost         []string
}

// Insert routes rows by partition key and commits them through the
// transaction broker, returning the commit timestamp.
func (c *Coordinator) Insert(table string, rows []value.Row) (uint64, error) {
	t0 := time.Now()
	span := c.tracer.Start("insert")
	span.AddString("table", table)
	span.AddInt("rows", len(rows))
	defer span.Finish()
	defer c.obs.Histogram("soe_insert_ms", "service=v2dqp").ObserveSince(t0)

	t, ok := c.ccat.Table(table)
	if !ok {
		return 0, fmt.Errorf("soe: unknown table %q", table)
	}
	// Rows are placed by partition (a counting sort, order kept within
	// each), so the write set encodes as one section per partition: a host
	// decodes its rows as one batch and every other node steps over them
	// by length. A row goes where its key hashes as a node stores it:
	// coerced to the key column's kind.
	ki := t.KeyIndex()
	kind := t.Schema[ki].Kind
	parts := make([]int, len(rows))
	next := make([]int, t.Partitions+1) // next[p+1] counts partition p, then next[p] is its next slot
	for i, r := range rows {
		if len(r) != len(t.Schema) {
			return 0, fmt.Errorf("soe: row width %d for table %s (%d cols)", len(r), table, len(t.Schema))
		}
		key := value.Coerce(r[ki], kind)
		if key.IsNull() && !r[ki].IsNull() {
			return 0, fmt.Errorf("soe: key %s of table %s is not a %s", r[ki].AsString(), table, kind)
		}
		parts[i] = t.PartitionFor(key)
		next[parts[i]+1]++
	}
	for p := 0; p < t.Partitions; p++ {
		next[p+1] += next[p]
	}
	writes := make([]LogWrite, len(rows))
	for i, r := range rows {
		writes[next[parts[i]]] = LogWrite{Table: table, Partition: parts[i], Kind: writeInsert, Row: r}
		next[parts[i]]++
	}
	resp, err := c.commit(span, writes)
	if err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, fmt.Errorf("soe: commit: %s", resp.Err)
	}
	t.addRows(int64(len(rows)))
	return commitTS(resp.Pos), nil
}

// Delete removes rows by partition-key value.
func (c *Coordinator) Delete(table, key string) (uint64, error) {
	t, ok := c.ccat.Table(table)
	if !ok {
		return 0, fmt.Errorf("soe: unknown table %q", table)
	}
	// A key that does not coerce to the key column's kind names no row:
	// refused before anything is logged, as Insert refuses one.
	kv := t.keyValue(key)
	if kv.IsNull() && key != "" {
		return 0, fmt.Errorf("soe: key %s of table %s is not a %s", key, table, t.Schema[t.KeyIndex()].Kind)
	}
	span := c.tracer.Start("delete")
	span.AddString("table", table)
	defer span.Finish()
	w := LogWrite{Table: table, Partition: t.PartitionFor(kv), Kind: writeDelete, Key: key}
	resp, err := c.commit(span, []LogWrite{w})
	if err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, fmt.Errorf("soe: commit: %s", resp.Err)
	}
	return commitTS(resp.Pos), nil
}

// commit sends one write set to the broker under an idempotency token,
// retrying timeouts and availability failures with backoff. The token
// makes the retry safe: a commit whose acknowledgement was lost (e.g. the
// attempt timed out after the broker appended) is recognized and answered
// from the broker's transaction cache instead of being applied twice.
func (c *Coordinator) commit(span *stats.Span, writes []LogWrite) (CommitResp, error) {
	pol := c.retry()
	// The write set is encoded here, once: every attempt sends these bytes,
	// and the broker, the shared log and the Apply push carry their section
	// part on unchanged.
	payload := encode(CommitReq{
		Token:  c.disc.Token(),
		TxnID:  fmt.Sprintf("%s-txn-%d", c.Name, c.txnSeq.Add(1)),
		Writes: writes,
	})
	var lastErr error
	for a := 0; a < pol.MaxAttempts; a++ {
		if a > 0 {
			c.obs.Counter("soe_commit_retries_total", "service=v2dqp").Inc()
			pol.backoff(a - 1)
		}
		cm := span.Child("commit")
		cm.AddInt("attempt", a+1)
		var resp CommitResp
		msg, err := c.callers.exchange(c.Name, c.broker, netsim.Message{Kind: MsgCommit, Payload: payload, Trace: cm.Context()}, pol.TaskTimeout)
		if err == nil {
			err = decodeErr(msg.Kind, resp.readWire(msg.Payload))
		}
		cm.Finish()
		if err == nil {
			return resp, nil
		}
		if !retryable(err) {
			return CommitResp{}, err
		}
		lastErr = err
	}
	return CommitResp{}, lastErr
}

// Query plans and executes a distributed SELECT with params, the values of
// its $N, returning the result and the plan that produced it.
func (c *Coordinator) Query(sql string, params ...value.Value) (*Result, *distql.Plan, error) {
	return c.query(stats.SpanContext{}, sql, params, chosen)
}

// ForceStrategy executes a join with an explicit strategy instead of the
// one the coordinator would choose (the E8 ablation).
func (c *Coordinator) ForceStrategy(sql string, strategy distql.Strategy) (*Result, *distql.Plan, error) {
	return c.query(stats.SpanContext{}, sql, nil, strategy)
}

// chosen is the strategy argument of a query that leaves the choice to the
// coordinator.
const chosen distql.Strategy = -1

// query is every distributed SELECT: its plan (Coordinator.plan: made once
// per shape and cluster catalog version), the span and the
// soe_queries_total / soe_query_ms accounting, then the fan-out of the
// node's share as a Partial task: the shape's text and its parameters,
// params followed by the values of the text's literal slots. A zero parent
// starts a fresh trace; a client whose MsgExec carried a SpanContext
// continues its own. A join runs with strategy unless that is chosen.
func (c *Coordinator) query(parent stats.SpanContext, sql string, params []value.Value, strategy distql.Strategy) (*Result, *distql.Plan, error) {
	t0 := time.Now()
	span := c.tracer.StartRemote("query", parent)
	span.AddString("sql", sql)
	if strategy != chosen {
		span.AddString("forced", strategy.String())
	}
	defer span.Finish()
	defer c.obs.Histogram("soe_query_ms", "service=v2dqp").ObserveSince(t0)
	c.obs.Counter("soe_queries_total", "service=v2dqp").Inc()

	pl := span.Child("plan")
	qp, params, err := c.plan(sql, params)
	pl.Finish()
	if err != nil {
		return nil, nil, err
	}
	// The caller's copy: a join's strategy and temp names are this query's,
	// and so are the parameters.
	plan := new(distql.Plan)
	*plan = qp.dist
	plan.Params = params
	node, fin := qp.node, qp.fin

	// The statement's fan-outs — one, or a join's stages — hold their
	// replies' buffers until the answer is built from them.
	var one [1]*fanRun
	fans := one[:0]
	defer func() {
		for _, f := range fans {
			if f != nil {
				f.release()
			}
		}
	}()
	switch {
	case plan.RightTable == "" && strategy != chosen:
		return nil, nil, fmt.Errorf("soe: ForceStrategy needs a join")
	case plan.RightTable == "":
		plan.Strategy = distql.StrategyLocalParallel
		var f *fanRun
		f, err = c.scopedFan(span, ExecReq{SQL: plan.LocalSQL, Params: params, Partial: true, Table: plan.LeftTable}, qp.preds, params)
		fans = append(fans, f)
	default:
		if plan.Strategy = strategy; strategy == chosen {
			plan.Strategy = c.joinStrategy(plan)
		}
		fans, err = c.executeJoin(node, plan, span)
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := c.finish(fin, fans, params)
	return res, plan, err
}

// queryPlan is what the coordinator makes of a SELECT's shape, once per
// cluster catalog version (Coordinator.plan), and shares among every query
// that sends a spelling of it: read-only.
type queryPlan struct {
	sel   *sqlexec.SelectStmt // the statement: the cache's AST
	node  *sqlexec.SelectStmt // what the nodes run (Finish.NodeSelect)
	dist  distql.Plan         // Rewrite's, LocalSQL filled in; no Params
	fin   *sqlexec.Finish
	preds []sqlexec.Pred // the WHERE clause classified against the left table (pruneParts)
}

// plan is the queryPlan of sql's shape — the one its parse carries when the
// cluster catalog has not changed since it was made, else a new one: the
// statement checked (distql.Rewrite), the tables checked, the statement
// planned and cut (sqlexec.Planner.BuildFinish) and the nodes' statement
// spelled — and the parameters it runs with: params, then the values of
// sql's literal slots.
func (c *Coordinator) plan(sql string, params []value.Value) (*queryPlan, []value.Value, error) {
	qp, params, err := c.parses.PlanSelect(sql, params, c.ccat.schemas.Version(), c.buildPlan)
	if err != nil {
		return nil, nil, err
	}
	return qp.(*queryPlan), params, nil
}

// buildPlan makes the queryPlan of shape, the text of a SELECT's shape,
// whose AST is sel. The AST may be the cache's, shared by every query of
// the same shape: the coordinator writes only into copies of it
// (cloneSelect).
func (c *Coordinator) buildPlan(shape string, sel *sqlexec.SelectStmt) (any, error) {
	if sel == nil {
		return nil, fmt.Errorf("soe: coordinator executes SELECT only (DML goes through Insert/Delete)")
	}
	dist, err := distql.Rewrite(sel)
	if err != nil {
		return nil, err
	}
	qp := &queryPlan{sel: sel, dist: *dist}
	for _, table := range []string{dist.LeftTable, dist.RightTable} {
		if _, ok := c.ccat.Table(table); !ok && table != "" {
			return nil, fmt.Errorf("soe: unknown table %q", table)
		}
	}
	if qp.fin, err = (&sqlexec.Planner{Cat: c.ccat.schemas, Reg: c.reg}).BuildFinish(sel); err != nil {
		return nil, err
	}
	// The nodes run the statement's shape — as it was written, unless the
	// engine leaves some of it to the coordinator alone.
	qp.node = qp.fin.NodeSelect(sel)
	qp.dist.LocalSQL = shape
	if qp.node != sel {
		qp.dist.LocalSQL = sqlexec.Deparse(qp.node)
	}
	if t, ok := c.ccat.Table(dist.LeftTable); ok {
		qp.preds = sqlexec.Classify(sel.Where, sel.From.Alias, t.Schema)
	}
	return qp, nil
}

// joinStrategy is the coordinator's choice for a join of two existing
// tables: co-located when they are co-partitioned on the join keys,
// broadcast when one side is small, repartitioned otherwise.
func (c *Coordinator) joinStrategy(plan *distql.Plan) distql.Strategy {
	lt, _ := c.ccat.Table(plan.LeftTable)
	rt, _ := c.ccat.Table(plan.RightTable)
	switch {
	case c.ccat.CoPartitioned(plan.LeftTable, plan.RightTable, plan.LeftKey, plan.RightKey):
		return distql.StrategyColocated
	case rt.rows() <= int64(c.BroadcastThreshold) || lt.rows() <= int64(c.BroadcastThreshold):
		return distql.StrategyBroadcast
	default:
		return distql.StrategyRepartition
	}
}

// executeJoin runs the nodes' share of a join with the plan's strategy and
// returns its fan-outs, the last one's replies the join's, even when one
// failed.
func (c *Coordinator) executeJoin(sel *sqlexec.SelectStmt, plan *distql.Plan, span *stats.Span) ([]*fanRun, error) {
	c.obs.Counter("soe_joins_total", "service=v2dqp", "strategy="+plan.Strategy.String()).Inc()
	switch plan.Strategy {
	case distql.StrategyColocated:
		// Scoped on both sides: a failover target must hold the same
		// partition of both tables for the bucket-local join to be correct.
		f, err := c.scopedFan(span, ExecReq{SQL: plan.LocalSQL, Params: plan.Params, Partial: true, Table: plan.LeftTable, Table2: plan.RightTable}, nil, nil)
		return []*fanRun{f}, err
	case distql.StrategyBroadcast:
		return c.broadcastJoin(sel, plan, span)
	case distql.StrategyRepartition:
		return c.repartitionJoin(sel, plan, span)
	default:
		return nil, fmt.Errorf("soe: strategy %v not executable for joins", plan.Strategy)
	}
}

// broadcastJoin replicates the smaller side to every node of the bigger
// side as a temp table.
func (c *Coordinator) broadcastJoin(sel *sqlexec.SelectStmt, plan *distql.Plan, span *stats.Span) ([]*fanRun, error) {
	lt, _ := c.ccat.Table(plan.LeftTable)
	rt, _ := c.ccat.Table(plan.RightTable)
	small, big := rt, lt
	smallIsRight := true
	if lt.rows() < rt.rows() {
		small, big = lt, rt
		smallIsRight = false
	}
	plan.BroadcastTable = small.Name

	// Pull the small side (partition-scoped, so it fails over too).
	pull, err := c.scopedFan(span, ExecReq{SQL: "SELECT * FROM " + small.Name, Table: small.Name}, nil, nil)
	fans := []*fanRun{pull}
	if err != nil {
		return fans, err
	}

	qid := c.queryID.Add(1)
	tmp := fmt.Sprintf("tmp_bc_%d", qid)
	// Install the broadcast temp on every node that might execute a big-side
	// task: the primary hosts plus registered replicas (failover targets).
	// Unreachable targets are skipped — their tasks fail over or degrade.
	bigNodes := c.ccat.NodesOf(big.Name)
	targets := append([]string(nil), bigNodes...)
	for p := 0; p < big.Partitions; p++ {
		targets = unionNodes(targets, c.ccat.Replicas(big.Name, p))
	}
	payload := encode(CreateTempReq{Token: c.disc.Token(), Name: tmp, Cols: small.Schema.Names(), Kinds: kindsOf(small), Rows: rowsOf(pull.replies)})
	// Dropped wherever it may have landed, whether or not every install
	// and the join succeed.
	defer c.dropTempOn(targets, tmp)
	for _, n := range targets {
		resp, err := send[ExecResp](c.net, c.Name, n, MsgCreateTemp, payload)
		if err != nil {
			if netsim.IsUnavailable(err) {
				continue
			}
			return fans, err
		}
		if resp.Err != "" {
			return fans, fmt.Errorf("soe: broadcast: %s", resp.Err)
		}
	}

	// The nodes run the statement over the temp in place of the small side.
	sub := cloneSelect(sel)
	if smallIsRight {
		sub.Joins[0].Table.Name = tmp
	} else {
		sub.From.Name = tmp
	}
	plan.LocalSQL = sqlexec.Deparse(sub)

	f, err := c.scopedFan(span, ExecReq{SQL: plan.LocalSQL, Params: plan.Params, Partial: true, Table: big.Name}, nil, nil)
	return append(fans, f), err
}

// repartitionJoin shuffles both sides by join key across the participating
// nodes, then joins bucket-locally. Data moves through the coordinator (a
// star shuffle), which charges the same volume the direct node-to-node
// shuffle would — a conservative model.
func (c *Coordinator) repartitionJoin(sel *sqlexec.SelectStmt, plan *distql.Plan, span *stats.Span) ([]*fanRun, error) {
	lt, _ := c.ccat.Table(plan.LeftTable)
	rt, _ := c.ccat.Table(plan.RightTable)
	// Shuffle buckets land only on reachable nodes: a crashed node would
	// otherwise sink its bucket and fail the join outright.
	nodes := c.aliveNodes(unionNodes(c.ccat.NodesOf(lt.Name), c.ccat.NodesOf(rt.Name)))
	if len(nodes) == 0 {
		return nil, fmt.Errorf("soe: repartition join: no reachable nodes")
	}
	qid := c.queryID.Add(1)
	tmpL := fmt.Sprintf("tmp_rl_%d", qid)
	tmpR := fmt.Sprintf("tmp_rr_%d", qid)

	// Each temp is dropped wherever it may have landed, whether or not the
	// shuffles and the join succeed.
	defer c.dropTempOn(nodes, tmpL)
	shL, err := c.shuffle(span, lt, plan.LeftKey, nodes, tmpL)
	fans := []*fanRun{shL}
	if err != nil {
		return fans, err
	}
	defer c.dropTempOn(nodes, tmpR)
	shR, err := c.shuffle(span, rt, plan.RightKey, nodes, tmpR)
	fans = append(fans, shR)
	if err != nil {
		return fans, err
	}

	sub := cloneSelect(sel)
	sub.From.Name = tmpL
	sub.Joins[0].Table.Name = tmpR
	plan.LocalSQL = sqlexec.Deparse(sub)

	f := c.fan(span, ExecReq{SQL: plan.LocalSQL, Params: plan.Params, Partial: true})
	for _, n := range nodes {
		f.tasks = append(f.tasks, taskRun{fanTask: fanTask{node: n}})
	}
	return append(fans, f), f.run()
}

// shuffle hashes a table's rows by the join key across the target nodes
// into per-node temp tables. The pull is partition-scoped, so a crashed
// source node fails over to replicas like any other read.
func (c *Coordinator) shuffle(span *stats.Span, t *DistTable, key string, nodes []string, tmp string) (*fanRun, error) {
	sh := span.Child("shuffle", "table="+t.Name)
	defer sh.Finish()
	ki := t.Schema.ColIndex(key)
	if ki < 0 {
		return nil, fmt.Errorf("soe: shuffle key %q not in %s", key, t.Name)
	}
	f, err := c.scopedFan(sh, ExecReq{SQL: "SELECT * FROM " + t.Name, Table: t.Name}, nil, nil)
	if err != nil {
		return f, err
	}
	buckets := make([][]value.Row, len(nodes))
	for _, row := range rowsOf(f.replies) {
		b := int(row[ki].Hash() % uint64(len(nodes)))
		buckets[b] = append(buckets[b], row)
	}
	kinds := kindsOf(t)
	for i, n := range nodes {
		req := CreateTempReq{Token: c.disc.Token(), Name: tmp, Cols: t.Schema.Names(), Kinds: kinds, Rows: buckets[i]}
		resp, err := call[ExecResp](c.net, c.Name, n, MsgCreateTemp, req)
		if err != nil {
			return f, err
		}
		if resp.Err != "" {
			return f, fmt.Errorf("soe: shuffle: %s", resp.Err)
		}
	}
	return f, nil
}

// fanTask is one unit of fan-out work: a target node and, for
// partition-scoped tasks, the exact partitions it must scan there. Scoped
// tasks can fail over partition-by-partition to replica nodes; unscoped
// tasks (temp relations local to a node) cannot.
type fanTask struct {
	node  string
	parts []int
}

// fanReport accounts one fan-out's coverage for partial-result labelling:
// covered/total is the fraction of required work that contributed rows.
type fanReport struct {
	covered, total int
	lost           []string
}

func (r *fanReport) fraction() float64 {
	if r.total == 0 {
		return 1
	}
	return float64(r.covered) / float64(r.total)
}

// fanRun is one fan-out: its request, its tasks, and what they brought
// back — the replies, the coverage, the scan counters — with the callers
// whose receive buffers the replies' fold states are windows of. Those go
// back only when the run is released, once the statement's answer is
// built (finish). A coordinator keeps released runs (runs) with every
// slice they grew, and lends one to each fan-out (fan).
type fanRun struct {
	c                *Coordinator
	span             *stats.Span
	req              ExecReq
	tasks            []taskRun
	replies          []sqlexec.Reply
	report           fanReport
	scanned, morsels int64
	placed           []placed // scopedFan's partitions with their nodes
	parts            []int    // the scoped tasks' partition lists, windows of it
	held             []*caller
}

// placed is a partition and the node that hosts it.
type placed struct {
	node string
	part int
}

// taskRun is one task of a fan-out: its attempts so far, the one in flight
// (its caller and span), and what the last brought back — the reply (ok)
// or the error that failed it.
type taskRun struct {
	fanTask
	attempt int
	cl      *caller
	sp      *stats.Span
	ok      bool
	reply   sqlexec.Reply
	err     error
}

// fan lends a fan-out of req under span its run state.
func (c *Coordinator) fan(span *stats.Span, req ExecReq) *fanRun {
	f := c.runs.get()
	if f == nil {
		f = &fanRun{c: c}
	}
	f.span, f.req = span, req
	return f
}

// release gives the callers that hold the replies back, and f to its
// coordinator, holding nothing of the fan-out.
func (f *fanRun) release() {
	for _, cl := range f.held {
		f.c.callers.put(cl)
	}
	clear(f.held)
	clear(f.tasks)
	clear(f.replies)
	clear(f.placed)
	f.held, f.tasks, f.replies, f.placed, f.parts = f.held[:0], f.tasks[:0], f.replies[:0], f.placed[:0], f.parts[:0]
	f.span, f.req, f.report, f.scanned, f.morsels = nil, ExecReq{}, fanReport{}, 0, 0
	f.c.runs.put(f)
}

// scopedFan runs req as a fan-out over the partitions of req.Table that
// pruneParts keeps, grouped by hosting node into scoped tasks, in
// node-name order, each listing its partitions in ascending order.
func (c *Coordinator) scopedFan(span *stats.Span, req ExecReq, preds []sqlexec.Pred, params []value.Value) (*fanRun, error) {
	f := c.fan(span, req)
	if t, ok := c.ccat.Table(req.Table); ok {
		f.parts = c.pruneParts(f.parts[:0], preds, params, req.Table)
		for _, p := range f.parts {
			f.placed = append(f.placed, placed{c.ccat.nodeOf(t, p), p})
		}
	}
	slices.SortStableFunc(f.placed, func(a, b placed) int { return strings.Compare(a.node, b.node) })
	f.parts = slices.Grow(f.parts[:0], len(f.placed))
	for i := 0; i < len(f.placed); {
		node, start := f.placed[i].node, len(f.parts)
		for ; i < len(f.placed) && f.placed[i].node == node; i++ {
			f.parts = append(f.parts, f.placed[i].part)
		}
		f.tasks = append(f.tasks, taskRun{fanTask: fanTask{node: node, parts: f.parts[start:len(f.parts):len(f.parts)]}})
	}
	return f, f.run()
}

// pruneParts is distributed partition pruning: the WHERE clause,
// classified against the table's schema (queryPlan.preds) as a node's scan
// classifies it again, the query's parameters bound in, and the fan-out
// keeps the partitions no predicate on the partition key refutes — every
// one when there are no predicates. It appends them to dst, in ascending
// order: possibly none (contradictory bounds), a valid fan-out.
func (c *Coordinator) pruneParts(dst []int, preds []sqlexec.Pred, params []value.Value, table string) []int {
	t, ok := c.ccat.Table(table)
	if !ok {
		return dst
	}
	var bound [8]sqlexec.Pred
	preds = sqlexec.BindPreds(bound[:0], preds, params)
	for p := 0; p < t.Partitions; p++ {
		if !t.refuted(p, preds) {
			dst = append(dst, p)
		}
	}
	return dst
}

// run runs f's request on every task in parallel — scoped to the task's
// partitions of req.Table (and req.Table2) where it lists any — and
// gathers every reply, in task order, and the coverage. Each attempt gets
// a "task" child span under the fan-out's span — the DAG of Figure 3 made
// visible in the trace tree — and runs on a caller of the coordinator's.
//
// Fault tolerance, in order: each task is retried per RetryPolicy
// (timeouts, crashes, partitions — never SQL errors); a scoped task that
// still fails is re-grouped partition-by-partition onto live replica nodes
// from the catalog, whose replies come after every task's; coverage that
// cannot be served anywhere either fails the query (default) or, with
// PartialResults, is dropped and reported in the completeness fraction.
func (f *fanRun) run() error {
	t0 := time.Now()
	c := f.c
	n := len(f.tasks)
	f.attempts(0)
	var err error
	for i := 0; i < n; i++ {
		t := &f.tasks[i]
		total := 1
		if t.parts != nil {
			total = len(t.parts)
		}
		f.report.total += total
		switch {
		case t.ok:
			f.report.covered += total
		case isSQLError(t.err):
			if err == nil {
				err = t.err
			}
		case t.parts == nil:
			f.report.lost = append(f.report.lost, fmt.Sprintf("%s (%v)", t.node, t.err))
		default:
			f.failover(i)
		}
	}
	if len(f.tasks) > n {
		f.attempts(n)
		for _, t := range f.tasks[n:] {
			if !t.ok {
				for _, p := range t.parts {
					f.report.lost = append(f.report.lost, fmt.Sprintf("%s p%d replica %s (%v)", f.req.Table, p, t.node, t.err))
				}
				continue
			}
			f.report.covered += len(t.parts)
			c.obs.Counter("soe_failovers_total", "service=v2dqp").Inc()
		}
	}
	for i := range f.tasks {
		if f.tasks[i].ok {
			f.replies = append(f.replies, f.tasks[i].reply)
		}
	}
	if err == nil && f.report.covered < f.report.total && !c.PartialResults {
		err = fmt.Errorf("soe: fan-out lost coverage: %v", f.report.lost)
	}
	// Outcome-labelled observability: failed fan-outs must not pollute the
	// success latency histogram or the scan-cost counters.
	outcome := "result=ok"
	if err != nil {
		outcome = "result=error"
	}
	c.obs.Histogram("soe_fanout_ms", "service=v2dqp", outcome).ObserveSince(t0)
	c.obs.Counter("soe_fanout_rows_scanned_total", "service=v2dqp", outcome).Add(f.scanned)
	c.obs.Counter("soe_fanout_morsels_total", "service=v2dqp", outcome).Add(f.morsels)
	return err
}

// attempts runs the tasks from the from-th on: every one's first attempt
// at once, then, in rounds after a backoff, another for each whose attempt
// failed with a retryable error, up to the policy's MaxAttempts: bounded
// attempts with exponential backoff and jitter, a deadline per attempt.
// SQL-level failures are not retried (retrying cannot help).
func (f *fanRun) attempts(from int) {
	pol := f.c.retry()
	again := func(t *taskRun) bool { return !t.ok && retryable(t.err) && t.attempt < pol.MaxAttempts }
	for i := from; i < len(f.tasks); i++ {
		f.post(&f.tasks[i], pol.TaskTimeout)
	}
	for round := 1; ; round++ {
		retry := false
		for i := from; i < len(f.tasks); i++ {
			if t := &f.tasks[i]; t.cl != nil {
				f.collect(t)
				retry = retry || again(t)
			}
		}
		if !retry {
			return
		}
		pol.backoff(round - 1)
		for i := from; i < len(f.tasks); i++ {
			if t := &f.tasks[i]; again(t) {
				f.c.obs.Counter("soe_task_retries_total", "service=v2dqp").Inc()
				f.post(t, pol.TaskTimeout)
			}
		}
	}
}

// post sends t's next attempt, with deadline d, on a caller, its request
// encoded into the caller's buffer.
func (f *fanRun) post(t *taskRun, d time.Duration) {
	t.attempt++
	t.sp = f.span.Child("task")
	t.sp.AddString("node", t.node)
	t.sp.AddInt("attempt", t.attempt)
	req := f.req
	req.Token, req.Parts = f.c.disc.Token(), t.parts
	if t.parts == nil {
		req.Table, req.Table2 = "", ""
	}
	t.cl = f.c.callers.get()
	t.cl.req = req.appendWire(t.cl.req[:0])
	t.cl.lend(f.c.Name, t.node, netsim.Message{Kind: MsgExec, Payload: t.cl.req, Trace: t.sp.Context()}, d)
}

// collect waits for t's attempt and reads its reply: the rows, the fold
// state — a window of the caller's receive buffer, so f holds the caller
// from then on — and the node's scan counters; or the error that failed
// it, a SQL error from the node's engine as *sqlError.
func (f *fanRun) collect(t *taskRun) {
	cl := t.cl
	t.cl = nil
	msg, kept, err := cl.wait()
	var resp ExecResp
	if err == nil {
		err = decodeErr(msg.Kind, resp.readWire(msg.Payload))
	}
	t.sp.Finish()
	t.sp = nil
	if err == nil && resp.Err != "" {
		err = &sqlError{node: t.node, msg: resp.Err}
	}
	t.ok, t.err = err == nil, err
	if err != nil {
		if kept {
			f.c.callers.put(cl)
		}
		return
	}
	t.reply = sqlexec.Reply{Rows: resp.Rows, State: resp.State}
	f.scanned += int64(resp.RowsScanned)
	f.morsels += int64(resp.Morsels)
	f.held = append(f.held, cl)
}

// failover re-groups the partitions of task i, whose node could not serve
// them, onto live replica nodes as tasks of their own, asking each target
// to catch up first. For co-located joins a target must replicate the
// partition of both tables. Partitions with no live replica are reported
// lost, and so — not fatal — are those a replica fails to serve, e.g. with
// a SQL error over a temp relation a crashed install never reached:
// degraded coverage is the caller's decision.
func (f *fanRun) failover(i int) {
	c, failed := f.c, f.tasks[i]
	table, table2 := f.req.Table, f.req.Table2
	group := map[string][]int{}
	for _, p := range failed.parts {
		target := ""
		for _, cand := range c.ccat.Replicas(table, p) {
			if c.net.Alive(cand) && (table2 == "" || slices.Contains(c.ccat.Replicas(table2, p), cand)) {
				target = cand
				break
			}
		}
		if target == "" {
			f.report.lost = append(f.report.lost, fmt.Sprintf("%s p%d on %s (%v; no live replica)", table, p, failed.node, failed.err))
			continue
		}
		group[target] = append(group[target], p)
	}
	targets := make([]string, 0, len(group))
	for n := range group {
		targets = append(targets, n)
	}
	sort.Strings(targets)
	for _, rn := range targets {
		c.catchUp(f.span, rn, table, group[rn])
		f.tasks = append(f.tasks, taskRun{fanTask: fanTask{node: rn, parts: group[rn]}})
	}
}

// catchUp asks a replica to drain the log to the tail it reads before
// serving a failed-over read: every commit acknowledged before the read
// began, whoever made it, is in the log below that tail — the freshness
// bound of degraded operation. Best-effort: if the replica cannot catch up
// (broker unreachable, peers gone) the read proceeds on what it has; the
// completeness label, not silent staleness, is the contract under failure.
func (c *Coordinator) catchUp(span *stats.Span, node, table string, parts []int) {
	peers := map[int]string{}
	if t, ok := c.ccat.Table(table); ok {
		for _, p := range parts {
			if prim := c.ccat.nodeOf(t, p); c.net.Alive(prim) {
				peers[p] = prim
			}
		}
	}
	cu := span.Child("catch_up")
	cu.AddString("node", node)
	defer cu.Finish()
	payload := encode(CatchUpReq{Token: c.disc.Token(), Table: table, Peers: peers})
	c.callers.exchange(c.Name, node, netsim.Message{Kind: MsgCatchUp, Payload: payload, Trace: cu.Context()}, c.retry().TaskTimeout)
}

// aliveNodes filters a node list down to reachable members.
func (c *Coordinator) aliveNodes(nodes []string) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if c.net.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// finish runs the plan above the cut over the replies of the statement's
// last fan-out, with the statement's parameters, and folds every fan-out's
// coverage into the result's completeness label (the product of per-stage
// fractions: losing coverage in any stage of a multi-stage plan makes the
// whole answer partial).
func (c *Coordinator) finish(fin *sqlexec.Finish, fans []*fanRun, params []value.Value) (*Result, error) {
	out, err := fin.Run(&c.finishes, fans[len(fans)-1].replies, params...)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: out.Cols, Rows: out.Rows, Completeness: 1}
	for _, f := range fans {
		res.Completeness *= f.report.fraction()
		res.Lost = append(res.Lost, f.report.lost...)
	}
	if res.Completeness < 1 {
		res.Partial = true
		c.obs.Counter("soe_degraded_queries_total", "service=v2dqp").Inc()
	}
	return res, nil
}

// rowsOf is every row of the replies, in order.
func rowsOf(replies []sqlexec.Reply) []value.Row {
	var rows []value.Row
	for _, r := range replies {
		rows = append(rows, r.Rows...)
	}
	return rows
}

func (c *Coordinator) dropTempOn(nodes []string, tmp string) {
	for _, n := range nodes {
		call[ExecResp](c.net, c.Name, n, MsgExec, ExecReq{Token: c.disc.Token(), SQL: "DROP TABLE IF EXISTS " + tmp})
	}
}

func kindsOf(t *DistTable) []uint8 {
	out := make([]uint8, len(t.Schema))
	for i, cdef := range t.Schema {
		out[i] = uint8(cdef.Kind)
	}
	return out
}

func unionNodes(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func cloneSelect(s *sqlexec.SelectStmt) *sqlexec.SelectStmt {
	cp := *s
	cp.Joins = append([]sqlexec.JoinClause(nil), s.Joins...)
	return &cp
}
