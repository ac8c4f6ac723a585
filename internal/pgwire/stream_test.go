package pgwire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// This file holds the wire front end to the streaming contract: rows
// leave as the executor produces them and arrive as the embedded result,
// a Describe of a portal costs no plan of its own, a statement that ends
// early — its client gone, its server shutting down, its executor failing
// — gives back its admission slot, its workers and its goroutines, only
// the connection's goroutine ever writes, and neither end keeps anything
// that points into a frame buffer.

// loadWide creates wide(id INT, region VARCHAR, amount DOUBLE, qty INT)
// with n merged rows.
func loadWide(t testing.TB, eng *sqlexec.Engine, n int) {
	t.Helper()
	eng.MustQuery(`CREATE TABLE wide (id INT, region VARCHAR, amount DOUBLE, qty INT)`)
	rows := make([]value.Row, n)
	for i := range rows {
		region := value.String(fmt.Sprintf("région-%d", i%8)) // multi-byte
		if i%11 == 0 {
			region = value.Null
		}
		rows[i] = value.Row{value.Int(int64(i)), region, value.Float(float64(i) / 7), value.Int(int64(i % 20))}
	}
	tbl := eng.Cat.MustTable("wide").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
}

// sameAsEmbedded checks a wire result, cell by cell, against the engine's
// own answer to the same statement.
func sameAsEmbedded(t *testing.T, eng *sqlexec.Engine, sql string, got *ClientResult) {
	t.Helper()
	want := eng.MustQuery(sql)
	if !reflect.DeepEqual(got.Cols, want.Cols) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows under %v over the wire, %d under %v embedded", sql, len(got.Rows), got.Cols, len(want.Rows), want.Cols)
	}
	for i, row := range want.Rows {
		for j, v := range row {
			cell := got.Rows[i][j]
			if v.IsNull() != (cell == nil) || cell != nil && *cell != v.AsString() {
				t.Fatalf("%s: row %d cell %d: wire %v, embedded %v", sql, i, j, cell, v)
			}
		}
	}
}

// TestWireStreamedResults: results of zero, one, a window's worth and many
// windows of rows arrive over both protocols exactly as the engine returns
// them embedded; the simple protocol's RowDescription carries the planned
// types and precedes the first DataRow, or CommandComplete when there is
// none.
func TestWireStreamedResults(t *testing.T) {
	srv, eng := startServer(t, Config{})
	loadWide(t, eng, 40_000)
	c := dialT(t, srv)
	for _, sql := range []string{
		`SELECT id, region, amount, qty FROM wide WHERE id < 0`,
		`SELECT id, region, amount, qty FROM wide WHERE id = 7`,
		`SELECT id, region, amount, qty FROM wide WHERE id >= 100 AND id < 1124`,
		`SELECT id, region, amount, qty FROM wide WHERE id >= 5000 AND id < 25000`,
		`SELECT * FROM wide`,
		`SELECT region, COUNT(*), SUM(qty) FROM wide GROUP BY region ORDER BY region`,
		`SELECT id, amount FROM wide WHERE qty = 3 ORDER BY amount DESC LIMIT 3000`,
	} {
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sameAsEmbedded(t, eng, sql, res)
		if want := "SELECT " + strconv.Itoa(len(res.Rows)); res.Tag != want {
			t.Fatalf("%s: tag %q, want %q", sql, res.Tag, want)
		}
		simple, err := c.Simple(sql)
		if err != nil || len(simple) != 1 {
			t.Fatalf("%s: simple: %d results, %v", sql, len(simple), err)
		}
		sameAsEmbedded(t, eng, sql, simple[0])
	}

	nc, r := rawDial(t, srv)
	for _, tc := range []struct {
		sql  string
		want string // message types up to ReadyForQuery, runs of D collapsed
		oid  int    // the first column's type
	}{
		{`SELECT id, region FROM wide WHERE id < 3`, "TDCZ", oidInt8},
		{`SELECT amount FROM wide WHERE id < 0`, "TCZ", oidFloat8},
		{`SELECT region FROM wide WHERE id = 0`, "TDCZ", oidText}, // NULL throughout the batch
		{`INSERT INTO wide VALUES (-1, 'x', 0.5, 1)`, "CZ", 0},
	} {
		writeMsg(t, nc, msgQuery, []byte(tc.sql+"\x00"))
		var types []byte
		for {
			typ, payload, err := readFrame(r, DefaultMaxMessage)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if typ == msgRowDescription {
				m := msgReader{buf: payload}
				m.int16()
				m.string()
				m.int32()
				m.int16()
				if oid := m.int32(); oid != tc.oid {
					t.Errorf("%s: first column described as type %d, want %d", tc.sql, oid, tc.oid)
				}
			}
			if n := len(types); typ != msgDataRow || n == 0 || types[n-1] != msgDataRow {
				types = append(types, typ)
			}
			if typ == msgReadyForQuery {
				break
			}
		}
		if string(types) != tc.want {
			t.Errorf("%s: messages %q, want %q", tc.sql, types, tc.want)
		}
	}
}

// exchange writes a batch of extended-protocol messages and returns the
// types that come back up to ReadyForQuery (runs of DataRows collapsed)
// with the first error code.
type wireMsg struct {
	typ     byte
	payload []byte
}

func exchange(t *testing.T, nc net.Conn, r *bufio.Reader, msgs ...wireMsg) (string, string) {
	t.Helper()
	for _, m := range msgs {
		writeMsg(t, nc, m.typ, m.payload)
	}
	var types []byte
	all, code := collectUntilReady(t, r)
	for _, typ := range all {
		if n := len(types); typ != msgDataRow || n == 0 || types[n-1] != msgDataRow {
			types = append(types, typ)
		}
	}
	return string(types), code
}

func parseMsg(name, sql string) wireMsg {
	return wireMsg{msgParse, append([]byte(name+"\x00"+sql+"\x00"), 0, 0)}
}

// bindMsg binds portal to stmt with text parameters.
func bindMsg(portal, stmt string, params ...string) wireMsg {
	p := []byte(portal + "\x00" + stmt + "\x00")
	p = append(p, 0, 0, byte(len(params)>>8), byte(len(params)))
	for _, s := range params {
		p = append(p, byte(len(s)>>24), byte(len(s)>>16), byte(len(s)>>8), byte(len(s)))
		p = append(p, s...)
	}
	return wireMsg{msgBind, append(p, 0, 0)}
}

func describeMsg(kind byte, name string) wireMsg {
	return wireMsg{msgDescribe, append([]byte{kind}, name+"\x00"...)}
}

func executeMsg(portal string, maxRows int) wireMsg {
	return wireMsg{msgExecute, append([]byte(portal+"\x00"), byte(maxRows>>24), byte(maxRows>>16), byte(maxRows>>8), byte(maxRows))}
}

func closeMsg(kind byte, name string) wireMsg {
	return wireMsg{msgClose, append([]byte{kind}, name+"\x00"...)}
}

var syncMsg = wireMsg{msgSync, nil}

// TestWireDescribeDeferred: Describe(P) followed by Execute plans the
// statement once, and the client sees the messages it always saw in the
// order it always saw them; anything else arriving after the Describe
// settles it by planning, as before, and a plan made by the Describe is the
// one the Execute runs; a planning error is one ErrorResponse. Plans are
// counted as the engine builds them (sql_plans_built_total); every case
// starts from a catalog change, so its statement has no plan yet.
func TestWireDescribeDeferred(t *testing.T) {
	srv, eng := startServer(t, Config{})
	loadWide(t, eng, 3000)
	eng.Obs = stats.NewRegistry()
	built := eng.Obs.Counter("sql_plans_built_total")
	planned := func() int64 { n := built.Value(); built.Add(-n); return n }
	replan := func() { eng.Cat.SetMetadata("wide", "describe_case", "") }

	// The client library's own flow: Bind, Describe(P), Execute, Sync.
	c := dialT(t, srv)
	if err := c.Prepare("pt", `SELECT id, region FROM wide WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	if n := planned(); n != 1 {
		t.Fatalf("Parse planned %d times, want once", n)
	}
	res, err := c.ExecPrepared("pt", 42)
	if err != nil || len(res.Rows) != 1 || res.Get(0, 0) != "42" || !reflect.DeepEqual(res.Cols, []string{"id", "region"}) {
		t.Fatalf("prepared point select: %+v, %v", res, err)
	}
	if n := planned(); n != 0 {
		t.Errorf("Bind/Describe/Execute/Sync planned %d times, want the plan Parse made", n)
	}

	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	const sel = `SELECT id, region FROM wide WHERE id >= $1 AND id < $2`
	if types, code := exchange(t, nc, r, parseMsg("s", sel), syncMsg); types != "1Z" || code != "" {
		t.Fatalf("parse: %q %s", types, code)
	}
	planned()
	if types, code := exchange(t, nc, r, parseMsg("e", `EXPLAIN SELECT id, region FROM wide WHERE id >= 1 AND id < 2`), syncMsg); types != "1Z" || code != "" {
		t.Fatalf("parse: %q %s", types, code)
	}
	if n := planned(); n != 0 {
		t.Fatalf("parsing an EXPLAIN planned %d times: its columns need no plan", n)
	}
	for _, tc := range []struct {
		name string
		msgs []wireMsg
		want string
	}{
		{"describe then execute", []wireMsg{bindMsg("", "s", "10", "20"), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2TDCZ"},
		{"no rows", []wireMsg{bindMsg("", "s", "10", "10"), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2TCZ"},
		{"many windows", []wireMsg{bindMsg("", "s", "0", "2500"), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2TDCZ"},
		{"row limit", []wireMsg{bindMsg("", "s", "0", "10"), describeMsg('P', ""), executeMsg("", 4), executeMsg("", 4), executeMsg("", 4), syncMsg}, "2TDsDsDCZ"},
		{"sync settles", []wireMsg{bindMsg("", "s", "10", "20"), describeMsg('P', ""), syncMsg}, "2TZ"},
		{"flush settles", []wireMsg{bindMsg("", "s", "10", "20"), describeMsg('P', ""), {msgFlush, nil}, syncMsg}, "2TZ"},
		{"describe settles", []wireMsg{bindMsg("", "s", "10", "20"), describeMsg('P', ""), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2TTDCZ"},
		{"close settles", []wireMsg{bindMsg("", "s", "10", "20"), describeMsg('P', ""), closeMsg('P', ""), syncMsg}, "2T3Z"},
		{"another portal's execute settles", []wireMsg{bindMsg("a", "s", "10", "20"), bindMsg("b", "s", "0", "1"), describeMsg('P', "a"), executeMsg("b", 0), executeMsg("a", 0), syncMsg}, "22TDCDCZ"},
		{"describe after execute", []wireMsg{bindMsg("", "s", "10", "20"), executeMsg("", 0), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2DCTCZ"},
		{"explain describes at once", []wireMsg{bindMsg("", "e"), describeMsg('P', ""), executeMsg("", 0), syncMsg}, "2TDCZ"},
	} {
		replan()
		types, code := exchange(t, nc, r, tc.msgs...)
		if types != tc.want || code != "" {
			t.Errorf("%s: messages %q (error %q), want %q", tc.name, types, code, tc.want)
		}
		if n := planned(); n != 1 {
			t.Errorf("%s: planned %d times, want once", tc.name, n)
		}
	}

	// The table goes away between Parse and Describe: the one ErrorResponse
	// it always was, whichever message pays for the plan.
	eng.MustQuery(`CREATE TABLE gone (a INT)`)
	if types, code := exchange(t, nc, r, parseMsg("g", `SELECT a FROM gone`), syncMsg); types != "1Z" || code != "" {
		t.Fatalf("parse: %q %s", types, code)
	}
	eng.MustQuery(`DROP TABLE gone`)
	for _, msgs := range [][]wireMsg{
		{bindMsg("", "g"), describeMsg('P', ""), executeMsg("", 0), syncMsg},
		{bindMsg("", "g"), describeMsg('P', ""), syncMsg},
	} {
		if types, code := exchange(t, nc, r, msgs...); types != "2EZ" || code == "" {
			t.Errorf("dropped table: messages %q (error %q), want one ErrorResponse", types, code)
		}
	}
	if types, code := exchange(t, nc, r, bindMsg("", "s", "1", "2"), describeMsg('P', ""), executeMsg("", 0), syncMsg); types != "2TDCZ" || code != "" {
		t.Errorf("after the errors: %q %s", types, code)
	}
}

// failingBackend serves sessions whose statements starting with "SELECT
// boom" push two batches into the sink and then fail.
type failingBackend struct{ eng *sqlexec.Engine }

type failingSession struct{ Session }

// boomStmt is a statement whose executor fails mid-result.
type boomStmt struct{ Stmt }

var errBoom = errors.New("executor failed mid-result")

func (b failingBackend) NewSession() Session {
	return failingSession{EngineBackend{b.eng}.NewSession()}
}

func (s failingSession) PrepareAll(sql string) ([]Stmt, error) {
	sts, err := s.Session.PrepareAll(sql)
	for i, st := range sts {
		if strings.HasPrefix(st.SQL(), "SELECT boom") {
			sts[i] = boomStmt{st}
		}
	}
	return sts, err
}

func (boomStmt) ExecTo(sink sqlexec.RowSink, params ...value.Value) (sqlexec.ExecStats, error) {
	if err := sink.Header([]sqlexec.Column{{Name: "a", Kind: value.KindInt}}); err != nil {
		return sqlexec.ExecStats{}, err
	}
	for b := 0; b < 2; b++ {
		rows := make([]value.Row, 1000)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(b*1000 + i))}
		}
		batch := sqlexec.RowsBatch(rows)
		if err := sink.Batch(&batch); err != nil {
			return sqlexec.ExecStats{}, err
		}
	}
	return sqlexec.ExecStats{}, errBoom
}

// TestWireErrorAfterRows: a statement that fails after rows have left
// yields the rows, then ErrorResponse, then ReadyForQuery; the client
// returns the error; the connection serves the next statement; the
// admission slot is free again.
func TestWireErrorAfterRows(t *testing.T) {
	obs := stats.NewRegistry()
	srv, err := Serve(failingBackend{sqlexec.NewEngine()}, Config{Addr: "127.0.0.1:0", Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	writeMsg(t, nc, msgQuery, []byte("SELECT boom\x00"))
	all, code := collectUntilReady(t, r)
	var rows int
	for _, typ := range all {
		if typ == msgDataRow {
			rows++
		}
	}
	if want := "T" + strings.Repeat("D", 2000) + "EZ"; string(all) != want || code == "" {
		t.Fatalf("%d rows, messages %.8q…%q, code %q; want RowDescription, 2000 rows, ErrorResponse, ReadyForQuery", rows, all, all[max(len(all)-4, 0):], code)
	}
	c := dialT(t, srv)
	if _, err := c.Simple(`SELECT boom`); err == nil || !strings.Contains(err.Error(), errBoom.Error()) {
		t.Fatalf("client returned %v, want the executor's error", err)
	}
	if res, err := c.Simple(`SELECT 1 + 1`); err != nil || len(res) != 1 || res[0].Get(0, 0) != "2" {
		t.Fatalf("next statement: %v %v", res, err)
	}
	if len(srv.slots) != 0 {
		t.Fatalf("%d admission slots still held", len(srv.slots))
	}
	snap := obs.Snapshot()
	if n, _ := snap.Counter("pgwire_queries_total", "result=error"); n != 2 {
		t.Fatalf("pgwire_queries_total{result=error} = %d, want 2", n)
	}
}

// quiesced waits for the server to have dropped every connection and
// released every admission slot, and for the process to be back to base
// goroutines, taken with the process's morsel workers running.
func quiesced(t *testing.T, srv *Server, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		conns := len(srv.conns)
		srv.mu.Unlock()
		slots, goroutines := len(srv.slots), runtime.NumGoroutine()
		if conns == 0 && slots == 0 && goroutines <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d connections, %d admission slots held, %d goroutines (%d before)", label, conns, slots, goroutines, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireClientGoesAway: a client that closes its socket in the middle of
// a result, and one that stops reading while the server shuts down with a
// deadline, both end their statement: workers returned, slot released,
// connection dropped, no goroutine left.
func TestWireClientGoesAway(t *testing.T) {
	srv, eng := startServer(t, Config{})
	loadWide(t, eng, 200_000)
	eng.Workers = 4
	// A statement of several morsels starts the process's morsel workers
	// if none has yet: they stay, and belong in base.
	eng.MustQuery(`SELECT COUNT(*) FROM wide`)
	base := runtime.NumGoroutine()
	const sql = "SELECT id, region, amount, qty FROM wide\x00"

	// Closes mid-result, after the first thousand rows.
	nc, r := rawDial(t, srv)
	writeMsg(t, nc, msgQuery, []byte(sql))
	for rows := 0; rows < 1000; {
		typ, _, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgDataRow {
			rows++
		}
	}
	nc.Close()
	quiesced(t, srv, base, "client closed mid-result")

	// Stops reading: the statement blocks in its socket write until
	// Shutdown's deadline closes the connection under it.
	nc, _ = rawDial(t, srv)
	nc.(*net.TCPConn).SetReadBuffer(32 << 10) // the 7 MB reply must not fit in the kernel's buffers
	writeMsg(t, nc, msgQuery, []byte(sql))
	for deadline := time.Now().Add(5 * time.Second); len(srv.slots) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("statement never started")
		}
	}
	time.Sleep(50 * time.Millisecond) // let the socket buffers fill
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown returned %v, want the deadline: a blocked writer cannot drain", err)
	}
	nc.Close()
	quiesced(t, srv, base, "client stopped reading")
}

// gatedConn is the drain race made deterministic: armed, its Read delivers
// what the client wrote and then holds its return until Shutdown has
// visited the connection — by setting a read deadline, which is all it may
// do now; on the parent commit it visited by writing the 57P01 itself, so a
// write opens the gate too, and the connection goroutine, released into
// its handler, wrote the same bufio.Writer unsynchronized.
type gatedConn struct {
	net.Conn
	armed   atomic.Bool
	visited chan struct{}
	once    sync.Once
}

func (g *gatedConn) visit() {
	if g.armed.Load() {
		g.once.Do(func() { close(g.visited) })
	}
}

func (g *gatedConn) Read(p []byte) (int, error) {
	n, err := g.Conn.Read(p)
	if n > 0 && g.armed.Load() {
		select {
		case <-g.visited:
		case <-time.After(10 * time.Second):
		}
	}
	return n, err
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.visit()
	return g.Conn.Write(p)
}

func (g *gatedConn) SetReadDeadline(t time.Time) error {
	g.visit()
	return g.Conn.SetReadDeadline(t)
}

// attach hands srv one server-side connection the way acceptLoop hands it
// an accepted one.
func attach(srv *Server, server net.Conn) {
	srv.mu.Lock()
	srv.nextID++
	pid := srv.nextID
	c := newConn(srv, server, pid, 7)
	srv.conns[pid] = c
	srv.mu.Unlock()
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		c.serve()
		srv.dropConn(pid)
	}()
}

// handshake sends the startup packet and reads up to the first
// ReadyForQuery.
func handshake(t testing.TB, w io.Writer, r *bufio.Reader) {
	t.Helper()
	if _, err := w.Write([]byte("\x00\x00\x00\x12\x00\x03\x00\x00user\x00raw\x00\x00")); err != nil {
		t.Fatalf("startup: %v", err)
	}
	for {
		typ, _, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("startup: %v", err)
		}
		if typ == msgReadyForQuery {
			return
		}
	}
}

// servePipe attaches an in-memory connection to srv and completes the
// startup handshake on the client end.
func servePipe(t testing.TB, srv *Server, wrap func(net.Conn) net.Conn) (net.Conn, *bufio.Reader) {
	t.Helper()
	client, server := net.Pipe()
	if wrap != nil {
		server = wrap(server)
	}
	attach(srv, server)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	r := bufio.NewReader(client)
	handshake(t, client, r)
	return client, r
}

// TestWireDrainRace: Shutdown visits a connection whose goroutine has just
// been handed a complete Parse frame. Under -race this reports the drain
// race on the parent commit; now the connection's goroutine handles the
// Parse, sees the drain at its loop boundary and retires itself — one
// coded error, counted once — while an idle connection gets its one coded
// error from the same goroutine discipline and a busy one finishes its
// statement.
func TestWireDrainRace(t *testing.T) {
	obs := stats.NewRegistry()
	srv, eng := startServer(t, Config{Obs: obs})
	loadWide(t, eng, 50_000)
	gate := &gatedConn{visited: make(chan struct{})}
	parsing, pr := servePipe(t, srv, func(nc net.Conn) net.Conn { gate.Conn = nc; return gate })
	idle, ir := servePipe(t, srv, nil)
	busy := dialT(t, srv)

	// The busy connection is inside a statement when Shutdown arrives.
	busyDone := make(chan error, 1)
	var finished atomic.Bool
	go func() {
		res, err := busy.Query(`SELECT id, region, amount, qty FROM wide`)
		if err == nil && len(res.Rows) != 50_000 {
			err = fmt.Errorf("%d rows", len(res.Rows))
		}
		finished.Store(true)
		busyDone <- err
	}()
	for len(srv.slots) == 0 && !finished.Load() {
		time.Sleep(100 * time.Microsecond)
	}

	gate.armed.Store(true)
	m := parseMsg("p", `SELECT 1`)
	writeMsg(t, parsing, m.typ, m.payload) // returns once the server's Read has it
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()

	// The parsing connection: ParseComplete, then exactly one 57P01, then EOF.
	untilEOF := func(r *bufio.Reader) (types []byte, codes []string) {
		for {
			typ, payload, err := readFrame(r, DefaultMaxMessage)
			if err != nil {
				return types, codes
			}
			types = append(types, typ)
			if typ == msgErrorResponse {
				codes = append(codes, decodeError(&msgReader{buf: payload}).Code)
			}
		}
	}
	if types, codes := untilEOF(pr); string(types) != "1E" || !reflect.DeepEqual(codes, []string{CodeAdminShutdown}) {
		t.Errorf("connection caught mid-Parse: messages %q, errors %v; want ParseComplete and one 57P01", types, codes)
	}
	if types, codes := untilEOF(ir); string(types) != "E" || !reflect.DeepEqual(codes, []string{CodeAdminShutdown}) {
		t.Errorf("idle connection: messages %q, errors %v; want one 57P01", types, codes)
	}
	if err := <-busyDone; err != nil {
		t.Errorf("busy connection did not finish its statement: %v", err)
	}
	if err := <-shut; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	parsing.Close()
	idle.Close()
	if n, _ := obs.Snapshot().Counter("pgwire_drained_conns_total"); n != 3 {
		t.Errorf("pgwire_drained_conns_total = %d, want 3", n)
	}
}

// TestWireFrameBufferReuse: nothing the server keeps from a message —
// statement text, parameter values, statement and portal names — points
// into the frame buffer the next message overwrites.
func TestWireFrameBufferReuse(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE people (id INT, name VARCHAR)`)
	eng.MustQuery(`INSERT INTO people VALUES (1, 'ada'), (2, 'grace'), (3, 'edsger')`)
	c := dialT(t, srv)
	if err := c.Prepare("by_name", `SELECT id FROM people WHERE name = $1`); err != nil {
		t.Fatal(err)
	}
	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if types, code := exchange(t, nc, r, parseMsg("keep", `SELECT name FROM people WHERE name = $1 OR name = 'grace' ORDER BY name`),
		bindMsg("held", "keep", "edsger"), syncMsg); types != "12Z" || code != "" {
		t.Fatalf("%q %s", types, code)
	}
	scribble := func() {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sc := range srv.conns {
			buf := sc.in.buf[:cap(sc.in.buf)]
			for i := range buf {
				buf[i] = 'Z'
			}
		}
	}
	scribble() // every connection is idle: its goroutine waits for a header
	if types, code := exchange(t, nc, r, executeMsg("held", 0), syncMsg); types != "DCZ" || code != "" {
		t.Fatalf("portal bound before the scribble: %q %s", types, code)
	}
	scribble()
	if types, code := exchange(t, nc, r, bindMsg("", "keep", "ada"), describeMsg('S', "keep"), executeMsg("", 0), syncMsg); types != "2tTDCZ" || code != "" {
		t.Fatalf("statement parsed before the scribble: %q %s", types, code)
	}
	res, err := c.ExecPrepared("by_name", "grace")
	if err != nil || len(res.Rows) != 1 || res.Get(0, 0) != "2" {
		t.Fatalf("prepared statement after the scribble: %+v %v", res, err)
	}
	var sqls []string
	for _, s := range eng.StatementStats() {
		sqls = append(sqls, s.Query)
	}
	if got := strings.Join(sqls, "\n"); strings.Contains(got, "ZZZ") {
		t.Fatalf("scribbled text reached the engine:\n%s", got)
	}
}

// dataRow frames one row of text cells (nil = NULL) as the server would.
func dataRow(cells []*string) []byte {
	var out bytes.Buffer
	w := &msgWriter{w: bufio.NewWriter(&out)}
	w.start(msgDataRow)
	w.int16(len(cells))
	for _, c := range cells {
		if c == nil {
			w.int32(-1)
			continue
		}
		w.int32(len(*c))
		w.raw([]byte(*c))
	}
	w.finish()
	w.w.Flush()
	return out.Bytes()
}

// decodeBoth feeds a stream of frames to the chunked decoder and, row by
// row, to the reference decoder, and returns both results. wellFormed
// reports whether every DataRow held the cells it claimed: the reference
// is the reference for those.
func decodeBoth(stream []byte) (got, want [][]*string, wellFormed bool) {
	var d rowDecoder
	wellFormed = true
	fr := newFrameReader(bytes.NewReader(stream), 1<<16)
	for {
		typ, payload, err := fr.readFrame()
		if err != nil {
			return d.finish(), want, wellFormed
		}
		if typ != msgDataRow {
			continue
		}
		m := msgReader{buf: payload}
		d.add(&m)
		if m.err != nil {
			wellFormed = false
		} else {
			want = append(want, decodeDataRow(&msgReader{buf: append([]byte(nil), payload...)}))
		}
	}
}

func sameCells(a, b [][]*string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if (a[i][j] == nil) != (b[i][j] == nil) || a[i][j] != nil && *a[i][j] != *b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestWireChunkedDecoder: the chunked DataRow decoder equals the per-row
// reference on random rows — NULLs, empty strings, multi-byte text, rows
// of changing width — for every row count around the chunk boundaries, and
// a reply of one row costs what one row used to.
func TestWireChunkedDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	alphabet := []string{"", "a", "ü", "日本語", "NULL", "\x00", strings.Repeat("wide-", 20)}
	randomRow := func(width int) []*string {
		row := make([]*string, width)
		for i := range row {
			if rng.Intn(4) > 0 {
				s := alphabet[rng.Intn(len(alphabet))] + alphabet[rng.Intn(len(alphabet))]
				row[i] = &s
			}
		}
		return row
	}
	for _, n := range []int{0, 1, 2, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342, 1364, 1365, 1366, 2389, 2390, 5000} {
		var stream []byte
		width := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if rng.Intn(500) == 0 {
				width = rng.Intn(6) // a width of its own, zero included
			}
			stream = append(stream, dataRow(randomRow(width))...)
		}
		got, want, _ := decodeBoth(stream)
		if !sameCells(got, want) || len(got) != n {
			t.Fatalf("%d rows: chunked decoder differs from the reference (%d vs %d rows)", n, len(got), len(want))
		}
		if n > 0 && cap(got) != n {
			t.Errorf("%d rows: rows built with capacity %d, want the final size", n, cap(got))
		}
	}

	var d rowDecoder
	s := "only"
	frame := dataRow([]*string{&s})[5:]
	if allocs := testing.AllocsPerRun(100, func() {
		d.add(&msgReader{buf: frame})
		if rows := d.finish(); len(rows) != 1 || *rows[0][0] != "only" {
			t.Fatal("decode")
		}
	}); allocs > 4 {
		t.Errorf("a one-row reply costs %.0f allocations, want <= 4 (text, strings, pointers, rows)", allocs)
	}
}

// TestWireFloatWordParams: a text parameter that spells a float word is
// that word. On the parent commit the names nan, Inf and infinity were
// stored as "NaN", "+Inf", "+Inf", and name = 'nan' matched every row.
func TestWireFloatWordParams(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE people (id INT, name VARCHAR)`)
	c := dialT(t, srv)
	names := []string{"nan", "Inf", "infinity", "NaN", "ada", "+7", "-inf"}
	for i, name := range names[:6] {
		if _, err := c.Query(`INSERT INTO people VALUES ($1, $2)`, i, name); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(`SELECT name FROM people ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"nan", "Inf", "infinity", "NaN", "ada"} {
		if got := res.Get(i, 0); got != want {
			t.Errorf("name %d stored as %q, want %q", i, got, want)
		}
	}
	for name, want := range map[string]string{"nan": "1", "Inf": "1", "infinity": "1", "inf": "0", "ada": "1"} {
		res, err := c.Query(`SELECT COUNT(*) FROM people WHERE name = $1`, name)
		if err != nil || res.Get(0, 0) != want {
			t.Errorf("COUNT(*) WHERE name = %q: %q (%v), want %s of 6", name, res.Get(0, 0), err, want)
		}
	}
}
