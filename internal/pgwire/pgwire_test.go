package pgwire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// startServer boots a wire server over a fresh engine on a random port.
func startServer(t *testing.T, cfg Config) (*Server, *sqlexec.Engine) {
	t.Helper()
	eng := sqlexec.NewEngine()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := Serve(EngineBackend{Engine: eng}, cfg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, eng
}

func dialT(t *testing.T, srv *Server) *Conn {
	t.Helper()
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), User: "test", Database: "soe"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireSimpleQuery(t *testing.T) {
	srv, _ := startServer(t, Config{})
	c := dialT(t, srv)

	if v := c.Parameter("server_version"); v == "" {
		t.Fatal("no server_version ParameterStatus")
	}
	if c.BackendPID() == 0 {
		t.Fatal("no BackendKeyData")
	}

	results, err := c.Simple(`CREATE TABLE t (a INT, b VARCHAR); INSERT INTO t VALUES (1, 'x'), (2, 'y'); SELECT a, b FROM t ORDER BY a`)
	if err != nil {
		t.Fatalf("simple: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	if results[0].Tag != "CREATE TABLE" {
		t.Fatalf("create tag %q", results[0].Tag)
	}
	if results[1].Tag != "INSERT 0 2" {
		t.Fatalf("insert tag %q", results[1].Tag)
	}
	sel := results[2]
	if sel.Tag != "SELECT 2" || len(sel.Rows) != 2 {
		t.Fatalf("select tag %q rows %d", sel.Tag, len(sel.Rows))
	}
	if sel.Get(0, 0) != "1" || sel.Get(0, 1) != "x" || sel.Get(1, 1) != "y" {
		t.Fatalf("rows %v", sel.Rows)
	}
	if len(sel.Cols) != 2 || sel.Cols[0] != "a" || sel.Cols[1] != "b" {
		t.Fatalf("cols %v", sel.Cols)
	}
}

func TestWireEmptyAndTypes(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE types (i INT, f DOUBLE, s VARCHAR, b BOOLEAN, ts TIMESTAMP)`)
	eng.MustQuery(`INSERT INTO types VALUES (7, 1.5, 'hi', TRUE, '2026-01-02 03:04:05')`)
	c := dialT(t, srv)

	results, err := c.Simple("  ;;  ")
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if len(results) != 1 || results[0].Tag != "" {
		t.Fatalf("want one EmptyQueryResponse, got %+v", results)
	}

	res, err := c.Query(`SELECT i, f, s, b, ts, NULL FROM types`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want := []string{"7", "1.5", "hi", "t", "2026-01-02 03:04:05.000000"}
	for i, w := range want {
		if got := res.Get(0, i); got != w {
			t.Fatalf("col %d: got %q want %q", i, got, w)
		}
	}
	if res.Rows[0][5] != nil {
		t.Fatal("NULL column should be nil")
	}
}

func TestWireExtendedParams(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE kv (k INT, v VARCHAR)`)
	for i := 0; i < 10; i++ {
		eng.MustQuery(`INSERT INTO kv VALUES (?, ?)`, value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i)))
	}
	c := dialT(t, srv)

	// Unnamed statement, $1 parameter.
	res, err := c.Query(`SELECT v FROM kv WHERE k = $1`, 7)
	if err != nil {
		t.Fatalf("extended: %v", err)
	}
	if len(res.Rows) != 1 || res.Get(0, 0) != "v7" {
		t.Fatalf("rows %v", res.Rows)
	}

	// Named prepared statement reused with different parameters; $1 twice.
	if err := c.Prepare("get", `SELECT k, v FROM kv WHERE k = $1 OR k = $1 + 1 ORDER BY k`); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for base := 0; base < 3; base++ {
		res, err := c.ExecPrepared("get", base)
		if err != nil {
			t.Fatalf("exec prepared: %v", err)
		}
		if len(res.Rows) != 2 || res.Get(0, 0) != fmt.Sprint(base) {
			t.Fatalf("base %d rows %v", base, res.Rows)
		}
	}

	// NULL parameter.
	res, err = c.Query(`SELECT v FROM kv WHERE k = $1`, nil)
	if err != nil {
		t.Fatalf("null param: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL never equals: rows %v", res.Rows)
	}

	// Parameterized insert through the extended protocol.
	res, err = c.Query(`INSERT INTO kv VALUES ($1, $2)`, 100, "hundred")
	if err != nil {
		t.Fatalf("param insert: %v", err)
	}
	if res.Tag != "INSERT 0 1" {
		t.Fatalf("tag %q", res.Tag)
	}
}

func TestWireTransactions(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE acc (id INT, bal INT)`)
	eng.MustQuery(`INSERT INTO acc VALUES (1, 100)`)
	c := dialT(t, srv)

	// Commit path.
	if _, err := c.Simple(`BEGIN`); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if c.TxStatus() != 'T' {
		t.Fatalf("txstatus %q, want T", c.TxStatus())
	}
	if _, err := c.Query(`UPDATE acc SET bal = bal - $1 WHERE id = $2`, 30, 1); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := c.Simple(`COMMIT`); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if c.TxStatus() != 'I' {
		t.Fatalf("txstatus %q, want I", c.TxStatus())
	}
	res, _ := c.Query(`SELECT bal FROM acc WHERE id = 1`)
	if res.Get(0, 0) != "70" {
		t.Fatalf("bal %q", res.Get(0, 0))
	}

	// Rollback path.
	c.Simple(`BEGIN`)
	c.Query(`UPDATE acc SET bal = 0 WHERE id = 1`)
	c.Simple(`ROLLBACK`)
	res, _ = c.Query(`SELECT bal FROM acc WHERE id = 1`)
	if res.Get(0, 0) != "70" {
		t.Fatalf("after rollback bal %q", res.Get(0, 0))
	}

	// Failed-transaction semantics: error inside a txn aborts it; further
	// statements fail 25P02; COMMIT rolls back.
	c.Simple(`BEGIN`)
	_, err := c.Simple(`SELECT broken syntax here`)
	if !hasCode(err, CodeSyntaxError) {
		t.Fatalf("want 42601, got %v", err)
	}
	if c.TxStatus() != 'E' {
		t.Fatalf("txstatus %q, want E", c.TxStatus())
	}
	_, err = c.Simple(`SELECT bal FROM acc`)
	if !hasCode(err, CodeFailedTxn) {
		t.Fatalf("want 25P02, got %v", err)
	}
	results, err := c.Simple(`COMMIT`)
	if err != nil {
		t.Fatalf("commit-in-failed: %v", err)
	}
	if results[0].Tag != "ROLLBACK" {
		t.Fatalf("commit in failed txn should report ROLLBACK, got %q", results[0].Tag)
	}
	if c.TxStatus() != 'I' {
		t.Fatalf("txstatus %q, want I", c.TxStatus())
	}
}

func TestWireSQLSTATECodes(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE t (a INT)`)
	eng.MustQuery(`CREATE TABLE t2 (a INT, b INT)`)
	c := dialT(t, srv)

	cases := []struct {
		sql  string
		code string
	}{
		{`SELECT FROM WHERE`, CodeSyntaxError},
		{`INSERT INTO t2 VALUES (1, 2), (3)`, CodeSyntaxError},
		{`INSERT INTO t2 VALUES (1, 2, 3)`, CodeSyntaxError},
		{`INSERT INTO t2 (a) VALUES (1, 2)`, CodeSyntaxError},
		{`INSERT INTO t2 (a, b) VALUES (1)`, CodeSyntaxError},
		{`SELECT * FROM nope`, CodeUndefinedTable},
		{`SELECT zzz FROM t`, CodeUndefinedColumn},
		{`SELECT nofunc(a) FROM t`, CodeUndefinedFunction},
		{`CREATE TABLE t (a INT)`, CodeDuplicateTable},
		{`COMMIT`, CodeNoActiveTxn},
		{`ROLLBACK`, CodeNoActiveTxn},
	}
	for _, tc := range cases {
		_, err := c.Simple(tc.sql)
		if !hasCode(err, tc.code) {
			t.Errorf("%q: want SQLSTATE %s, got %v", tc.sql, tc.code, err)
		}
		// The connection must stay usable after every error.
		if _, err := c.Simple(`SELECT COUNT(*) FROM t`); err != nil {
			t.Fatalf("connection broken after %q: %v", tc.sql, err)
		}
	}

	// BEGIN twice: active_sql_transaction.
	c.Simple(`BEGIN`)
	_, err := c.Simple(`BEGIN`)
	if !hasCode(err, CodeActiveTxn) {
		t.Fatalf("want 25001, got %v", err)
	}
	c.Simple(`ROLLBACK`)
}

func TestWireConcurrentConnections(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE c (w INT, n INT)`)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(ClientConfig{Addr: srv.Addr().String(), User: "w"})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				if _, err := c.Query(`INSERT INTO c VALUES ($1, $2)`, w, i); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				if _, err := c.Query(`SELECT COUNT(*) FROM c WHERE w = $1`, w); err != nil {
					errs <- fmt.Errorf("worker %d select %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := eng.MustQuery(`SELECT COUNT(*) FROM c`)
	if got := res.Rows[0][0].AsInt(); got != workers*25 {
		t.Fatalf("rows %d, want %d", got, workers*25)
	}
}

func TestWireCancelRequest(t *testing.T) {
	srv, _ := startServer(t, Config{})
	c := dialT(t, srv)
	if err := c.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The cancel flag trips the next statement boundary with 57014.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Simple(`SELECT 1`)
		if hasCode(err, CodeQueryCanceled) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never delivered")
		}
	}
	// And the connection survives.
	if _, err := c.Simple(`SELECT 1`); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

func TestWireMaxConns(t *testing.T) {
	srv, _ := startServer(t, Config{MaxConns: 2})
	c1 := dialT(t, srv)
	c2 := dialT(t, srv)
	_ = c1
	_ = c2
	_, err := Dial(ClientConfig{Addr: srv.Addr().String(), User: "x", Timeout: 2 * time.Second})
	if !hasCode(err, CodeTooManyConnections) {
		t.Fatalf("want 53300, got %v", err)
	}
}

func TestWireAdmissionRejects(t *testing.T) {
	obs := stats.NewRegistry()
	srv, eng := startServer(t, Config{Workers: 1, QueueDepth: 1, Obs: obs})
	eng.MustQuery(`CREATE TABLE slow (a INT)`)
	for i := 0; i < 2000; i++ {
		eng.MustQuery(`INSERT INTO slow VALUES (?)`, value.Int(int64(i)))
	}

	// Many clients hammering a 1-worker/1-queue server: some statements
	// must be rejected with 53400, none may hang or get a bare error.
	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ClientConfig{Addr: srv.Addr().String(), User: "x"})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				_, err := c.Query(`SELECT COUNT(*), SUM(a) FROM slow`)
				if err != nil {
					if !hasCode(err, CodeAdmissionRejected) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					mu.Lock()
					rejected++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	snap := obs.Snapshot()
	if v, _ := snap.Counter("pgwire_admission_rejections_total"); v != int64(rejected) {
		t.Fatalf("metric says %d rejections, clients saw %d", v, rejected)
	}
}

func TestWireGracefulDrain(t *testing.T) {
	obs := stats.NewRegistry()
	srv, eng := startServer(t, Config{Obs: obs})
	eng.MustQuery(`CREATE TABLE d (a INT)`)

	// One busy connection mid-burst, one idle connection.
	busy := dialT(t, srv)
	idle := dialT(t, srv)
	_ = idle

	var busyErrs, completed int
	busyDone := make(chan struct{})
	go func() {
		defer close(busyDone)
		for i := 0; i < 200; i++ {
			_, err := busy.Query(`INSERT INTO d VALUES ($1)`, i)
			if err != nil {
				if !hasCode(err, CodeAdminShutdown) {
					busyErrs++
				}
				return
			}
			completed++
		}
	}()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-busyDone
	if busyErrs != 0 {
		t.Fatalf("busy connection saw %d non-drain errors", busyErrs)
	}

	// Every insert the client saw confirmed must be durable: zero dropped
	// responses means response count == committed row count.
	res := eng.MustQuery(`SELECT COUNT(*) FROM d`)
	if got := res.Rows[0][0].AsInt(); got < int64(completed) {
		t.Fatalf("client saw %d confirms but table has %d rows", completed, got)
	}

	// New connections are refused while draining/closed.
	if _, err := Dial(ClientConfig{Addr: srv.Addr().String(), User: "x", Timeout: time.Second}); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
	if !srv.Draining() {
		t.Fatal("Draining() should report true")
	}
}

func TestWirePortalSuspension(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE p (a INT)`)
	for i := 0; i < 10; i++ {
		eng.MustQuery(`INSERT INTO p VALUES (?)`, value.Int(int64(i)))
	}
	c := dialT(t, srv)

	// Drive Execute with a row limit by hand: Parse+Bind, then two
	// Executes of 6 rows each — first suspends, second completes.
	c.sendParse("", `SELECT a FROM p ORDER BY a`)
	c.out.start(msgBind)
	c.out.string("")
	c.out.string("")
	c.out.int16(0)
	c.out.int16(0)
	c.out.int16(0)
	c.out.finish()
	for i := 0; i < 2; i++ {
		c.out.start(msgExecute)
		c.out.string("")
		c.out.int32(6)
		c.out.finish()
	}
	c.sync()

	var rows, suspends int
	tag := ""
	for done := false; !done; {
		typ, payload, err := readFrame(c.in.r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgDataRow:
			rows++
		case msgPortalSuspended:
			suspends++
		case msgCommandComplete:
			tag = m.string()
		case msgReadyForQuery:
			done = true
		case msgErrorResponse:
			t.Fatalf("error: %v", decodeError(m))
		}
	}
	if rows != 10 || suspends != 1 || tag != "SELECT 10" {
		t.Fatalf("rows=%d suspends=%d tag=%q", rows, suspends, tag)
	}
}

// A portal that has run to completion must not keep its rows: an idle
// connection would otherwise hold its last result set until the next Bind.
// The heap has to fall back to its pre-statement level while the
// connection stays open, and a second Execute of the completed portal
// still answers CommandComplete.
func TestWirePortalReleasesResult(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE big (a INT, b INT, c VARCHAR, d DOUBLE)`)
	const n = 10000
	sess := eng.NewSession()
	for lo := 0; lo < n; lo += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,'c%d',%d.5)", i, i%7, i%100, i)
		}
		if _, err := sess.Query(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	c := dialT(t, srv)

	// exec runs sql through the unnamed statement and portal, with the
	// given number of Executes before Sync, and returns what came back.
	exec := func(sql string, executes int) (rows int, tags []string) {
		c.sendParse("", sql)
		c.out.start(msgBind)
		c.out.string("")
		c.out.string("")
		c.out.int16(0)
		c.out.int16(0)
		c.out.int16(0)
		c.out.finish()
		for i := 0; i < executes; i++ {
			c.out.start(msgExecute)
			c.out.string("")
			c.out.int32(0)
			c.out.finish()
		}
		c.sync()
		for {
			typ, payload, err := readFrame(c.in.r, DefaultMaxMessage)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			m := &msgReader{buf: payload}
			switch typ {
			case msgDataRow:
				rows++
			case msgCommandComplete:
				tags = append(tags, m.string())
			case msgReadyForQuery:
				return rows, tags
			case msgErrorResponse:
				t.Fatalf("error: %v", decodeError(m))
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm the connection with a statement whose result is empty, so the
	// unnamed portal holds nothing worth measuring.
	exec(`SELECT a, b, c, d FROM big WHERE a < 0`, 1)
	before := heap()
	rows, tags := exec(`SELECT a, b, c, d FROM big`, 2)
	if rows != n || len(tags) != 2 || tags[0] != "SELECT 10000" || tags[1] != "SELECT 10000" {
		t.Fatalf("rows=%d tags=%q, want %d rows and SELECT 10000 twice", rows, tags, n)
	}
	after := heap()
	// The result is 10,000 rows x 4 values of 40 bytes: 1.6 MB if retained.
	if grew := int64(after) - int64(before); grew > 256<<10 {
		t.Fatalf("heap grew %d kB across a completed 10,000-row portal with the connection still open", grew>>10)
	}
}

func hasCode(err error, code string) bool {
	var pe *PGError
	if errors.As(err, &pe) {
		return pe.Code == code
	}
	return false
}
