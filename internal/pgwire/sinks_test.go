package pgwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/extstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// This file holds the wire front end's two sinks to one answer. An Execute
// without a row limit streams through rowWriter, which reads a root scan's
// columns through RowBatch.At and boxes nothing; one with a limit collects
// into a *sqlexec.Result, which boxes, and sends from it across
// PortalSuspended. The DataRow bytes must be the same.

// twoSinksEngine builds the tables the sinks are compared over, laid out
// by store: "hot" is merged, "main+delta" merged with a delta tail and
// deleted rows on both sides, "demoted" paged out to an extended store
// whose buffer pool is smaller than the data.
func twoSinksEngine(t *testing.T, store string) (*Server, *sqlexec.Engine) {
	t.Helper()
	srv, eng := startServer(t, Config{})
	eng.Workers = 3
	eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, yr INT)`)
	eng.MustQuery(`CREATE TABLE edge (k INT, f DOUBLE, s VARCHAR)`)
	eng.MustQuery(`CREATE TABLE dims (region VARCHAR, zone VARCHAR)`)
	const n = 40_000 // three morsels: views in flight on several workers
	order := func(i int) value.Row {
		region := value.String(fmt.Sprintf("région-%d", i%7))
		if i%13 == 0 {
			region = value.Null
		}
		status := value.String([]string{"OPEN", "SHIPPED", "CLOSED"}[i%3])
		return value.Row{value.Int(int64(i)), region, status, value.Float(float64(i%1000) * 1.25), value.Int(int64(2010 + i%6))}
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = order(i)
	}
	edge := []value.Row{
		{value.Int(math.MinInt64), value.Float(math.NaN()), value.String("日本語")},
		{value.Int(math.MaxInt64), value.Float(math.Inf(1)), value.String("ü\x00x")},
		{value.Int(0), value.Float(math.Inf(-1)), value.String("")},
		{value.Int(-1), value.Float(math.Copysign(0, -1)), value.String("🦀 crab")},
		{value.Null, value.Null, value.Null},
		{value.Int(7), value.Float(5e-324), value.String("NULL")},
		{value.Int(8), value.Float(1e21), value.String("naïve café")},
	}
	dims := []value.Row{
		{value.String("région-1"), value.String("north")},
		{value.String("région-2"), value.String("south")},
		{value.String("région-2"), value.String("south-east")},
		{value.Null, value.String("nowhere")},
	}
	for name, rs := range map[string][]value.Row{"orders": rows, "edge": edge, "dims": dims} {
		tbl := eng.Cat.MustTable(name).Primary()
		tbl.ApplyInsert(rs, 1)
		tbl.Merge(2)
	}
	eng.Mgr.AdvanceTo(2)
	switch store {
	case "main+delta":
		for i := n; i < n+500; i++ {
			row := order(i)
			eng.MustQuery(`INSERT INTO orders VALUES ($1, $2, $3, $4, $5)`, row...)
		}
		eng.MustQuery(`INSERT INTO edge VALUES (-9223372036854775807, -0.0, 'Ωmega')`)
		eng.MustQuery(`DELETE FROM orders WHERE id BETWEEN 100 AND 160`)
		eng.MustQuery(`DELETE FROM orders WHERE id = 40123`)
	case "demoted":
		warm, err := extstore.OpenTemp(extstore.Options{PageSize: 4096, ChunkRows: 1024, PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { warm.Close() })
		for _, name := range []string{"orders", "edge", "dims"} {
			if _, err := warm.DemoteTable(eng.Cat.MustTable(name), eng.Mgr.MinActiveTS()); err != nil {
				t.Fatalf("demote %s: %v", name, err)
			}
		}
	}
	return srv, eng
}

// twoSinksQueries are root scans and fused projections (views, dense,
// sparse and consecutive windows, kernels and residuals) beside roots that
// hand the sink rows they built.
var twoSinksQueries = []string{
	`SELECT * FROM orders`,
	`SELECT id, amount FROM orders WHERE yr = 2012`,
	`SELECT region, id, region FROM orders WHERE amount > 500 AND status <> 'OPEN'`,
	`SELECT id FROM orders WHERE id >= 100 AND id < 20100`,
	`SELECT amount, status FROM orders WHERE id = 77`,
	`SELECT id FROM orders WHERE id < 0`,
	`SELECT * FROM edge`,
	`SELECT s, f, k FROM edge WHERE k <> 0`,
	`SELECT id, region FROM orders LIMIT 30 OFFSET 5`,
	`SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`,
	`SELECT o.id, d.zone FROM orders o JOIN dims d ON o.region = d.region WHERE o.id < 300`,
	`SELECT id, amount FROM orders WHERE yr = 2014 ORDER BY amount DESC LIMIT 40`,
	`SELECT f, k FROM edge ORDER BY k`,
}

// wireDataRows writes msgs and reads up to ReadyForQuery: every DataRow
// frame, byte for byte, and the other messages' types in order.
func wireDataRows(t *testing.T, nc net.Conn, r *bufio.Reader, msgs ...wireMsg) (frames []byte, rows int, types string) {
	t.Helper()
	for _, m := range msgs {
		writeMsg(t, nc, m.typ, m.payload)
	}
	var other []byte
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch typ {
		case msgDataRow:
			frames = append(frames, typ)
			frames = binary.BigEndian.AppendUint32(frames, uint32(len(payload)+4))
			frames = append(frames, payload...)
			rows++
			continue
		case msgErrorResponse:
			t.Fatalf("ErrorResponse: %s", decodeError(&msgReader{buf: payload}).Message)
		}
		if other = append(other, typ); typ == msgReadyForQuery {
			return frames, rows, string(other)
		}
	}
}

// TestWireTwoSinksSameBytes: on hot, main+delta and demoted storage, every
// statement's DataRows streamed by an unlimited Execute equal, byte for
// byte, those of the same portal executed seven rows at a time from a
// collected result, and the row count is the engine's own.
func TestWireTwoSinksSameBytes(t *testing.T) {
	for _, store := range []string{"hot", "main+delta", "demoted"} {
		srv, eng := twoSinksEngine(t, store)
		nc, r := rawDial(t, srv)
		nc.SetReadDeadline(time.Now().Add(60 * time.Second))
		for i, sql := range twoSinksQueries {
			label := fmt.Sprintf("%s: %s", store, sql)
			name := fmt.Sprintf("q%d", i)
			if _, _, types := wireDataRows(t, nc, r, parseMsg(name, sql), syncMsg); types != "1Z" {
				t.Fatalf("%s: parse: %q", label, types)
			}
			streamed, n, types := wireDataRows(t, nc, r, bindMsg("", name), executeMsg("", 0), syncMsg)
			if types != "2CZ" {
				t.Fatalf("%s: unlimited execute: %q", label, types)
			}
			if want := len(eng.MustQuery(sql).Rows); n != want {
				t.Fatalf("%s: %d DataRows streamed, the engine returns %d", label, n, want)
			}
			msgs := []wireMsg{bindMsg("", name)}
			for k := 0; k < max(1, (n+6)/7); k++ {
				msgs = append(msgs, executeMsg("", 7))
			}
			collected, m, types := wireDataRows(t, nc, r, append(msgs, syncMsg)...)
			if !bytes.Equal(streamed, collected) {
				t.Errorf("%s: %d DataRows streamed and %d collected differ in their bytes", label, n, m)
			}
			if want := "2" + string(bytes.Repeat([]byte{msgPortalSuspended}, len(msgs)-2)) + "CZ"; types != want {
				t.Errorf("%s: limited executes: %q, want %q", label, types, want)
			}
		}
	}
}
