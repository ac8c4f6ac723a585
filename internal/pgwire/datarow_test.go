package pgwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// oldDataRow frames one DataRow the way sendDataRows did before cells
// were rendered in place: AsString (t/f for booleans) to a string, the
// string to bytes, a separately written header.
func oldDataRow(ncols int, row value.Row) []byte {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, uint16(ncols))
	for i := 0; i < ncols; i++ {
		if i >= len(row) || row[i].IsNull() {
			body = binary.BigEndian.AppendUint32(body, 0xffffffff)
			continue
		}
		s := row[i].AsString()
		if row[i].K == value.KindBool {
			s = map[bool]string{true: "t", false: "f"}[row[i].AsBool()]
		}
		body = binary.BigEndian.AppendUint32(body, uint32(len(s)))
		body = append(body, s...)
	}
	frame := []byte{msgDataRow}
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)+4))
	return append(frame, body...)
}

// readFrame reads one frame through a reader of its own, so the payload is
// the caller's to keep.
func readFrame(r *bufio.Reader, maxLen int) (byte, []byte, error) {
	return (&frameReader{r: r, max: maxLen}).readFrame()
}

// decodeDataRow decodes one DataRow into text cells (nil = NULL) — the
// client's decoder before rows were gathered in chunks, kept as the
// reference rowDecoder must equal. The payload is copied once and every
// cell is a substring of that copy.
func decodeDataRow(m *msgReader) []*string {
	n := max(m.int16(), 0)
	payload := string(m.buf)
	cells := make([]string, n)
	row := make([]*string, n)
	for i := range row {
		l := m.int32()
		if l < 0 {
			continue
		}
		at := m.pos
		cells[i] = payload[at : at+len(m.bytes(l))]
		row[i] = &cells[i]
	}
	return row
}

// TestWireDataRowFramesIdentical: every value kind encodes through the
// in-place path to the bytes the string-building path produced, and the
// client's substring decoder reads the same cells back.
func TestWireDataRowFramesIdentical(t *testing.T) {
	long := strings.Repeat("wide-cell-", 7) // > 32 bytes: past any small-string buffer
	res := &sqlexec.Result{
		Cols: []string{"a", "b", "c", "d"},
		Rows: []value.Row{
			{value.Null, value.Int(0), value.Int(-1), value.Int(math.MinInt64)},
			{value.Int(math.MaxInt64), value.Int(99), value.Int(100), value.Int(-4096)},
			{value.Float(1e21), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(math.Inf(1))},
			{value.Float(math.Inf(-1)), value.Float(0.1), value.Float(123456789.125), value.Float(5e-324)},
			{value.Bool(true), value.Bool(false), value.String(""), value.String(long)},
			{value.Time(time.Date(2026, 1, 2, 3, 4, 5, 678000, time.UTC)), value.TimeMicros(0), value.TimeMicros(-1), value.String("NULL")},
			{value.String("ü\x00x"), value.Null, value.Null}, // short row: missing cells are NULL
		},
	}
	var got bytes.Buffer
	c := &conn{out: &msgWriter{w: bufio.NewWriter(&got)}}
	b := sqlexec.RowsBatch(res.Rows)
	cols := make([]sqlexec.Column, len(res.Cols)) // of no known kind: text
	if err := c.sendDataRows(cols, "", &b); err != nil {
		t.Fatal(err)
	}
	if err := c.out.w.Flush(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, row := range res.Rows {
		want = append(want, oldDataRow(len(res.Cols), row)...)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("DataRow frames differ:\n got %q\nwant %q", got.Bytes(), want)
	}

	r := bufio.NewReader(&got)
	for _, row := range res.Rows {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil || typ != msgDataRow {
			t.Fatalf("frame: %q %v", typ, err)
		}
		m := &msgReader{buf: payload}
		cells := decodeDataRow(m)
		if m.err != nil || len(cells) != len(res.Cols) {
			t.Fatalf("decode: %d cells, err %v", len(cells), m.err)
		}
		for i, cell := range cells {
			switch {
			case i >= len(row) || row[i].IsNull():
				if cell != nil {
					t.Fatalf("cell %d of %v: want NULL, got %q", i, row, *cell)
				}
			case cell == nil:
				t.Fatalf("cell %d of %v decoded as NULL", i, row)
			case row[i].K != value.KindBool && *cell != row[i].AsString():
				t.Fatalf("cell %d: got %q, want %q", i, *cell, row[i].AsString())
			}
		}
	}
}

// TestWireAllocsPerRow: a 20,000-row four-column result costs a fixed
// number of allocations per window of rows end to end — the server's
// hand-off of positions and this client's frame read and chunked decode —
// and none per row or per frame.
func TestWireAllocsPerRow(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE orders (id INT, region VARCHAR, status VARCHAR, amount DOUBLE, qty INT)`)
	const n = 20_000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("region-%d", i%8)),
			value.String("OPEN"), value.Float(float64(i) / 7), value.Int(int64(i % 20))}
	}
	tbl := eng.Cat.MustTable("orders").Primary()
	tbl.ApplyInsert(rows, 1)
	tbl.Merge(2)
	eng.Mgr.AdvanceTo(2)
	c := dialT(t, srv)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := c.Query(`SELECT id, region, amount, qty FROM orders`)
		if err != nil || len(res.Rows) != n {
			t.Fatalf("query: %v (%d rows)", err, len(res.Rows))
		}
	})
	t.Logf("%.0f allocations, %.2f per row", allocs, allocs/n)
	if perRow := allocs / n; perRow > 0.1 {
		t.Fatalf("%.2f allocations per row, want <= 0.1: neither end of the wire allocates per frame or per row", perRow)
	}
}
