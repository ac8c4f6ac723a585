package pgwire

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
)

// Wire kinds: a Bind parameter is read as the kind its statement's plan
// gives it, fixed at Parse, and every RowDescription carries the planned
// types — the same for both protocols, before any row exists. When the wire
// guessed a parameter's kind from its text, '02134' reached a VARCHAR column
// as "2134" and 'abc' compared with an INT column as 0; when it took types
// from the first batch's values, Describe sent text for everything.

// describeTypes parses sql as a named statement, describes it and returns
// the parameter and column type OIDs the server answers with.
func describeTypes(t *testing.T, nc net.Conn, r *bufio.Reader, name, sql string) (params, cols []int) {
	t.Helper()
	for _, m := range []wireMsg{parseMsg(name, sql), describeMsg('S', name), syncMsg} {
		writeMsg(t, nc, m.typ, m.payload)
	}
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgParamDescription:
			params = make([]int, m.int16())
			for i := range params {
				params[i] = m.int32()
			}
		case msgRowDescription:
			cols = rowTypes(m)
		case msgErrorResponse:
			t.Fatalf("%s: %+v", sql, decodeError(m))
		case msgReadyForQuery:
			return params, cols
		}
	}
}

// rowTypes decodes the type OID of every field of a RowDescription.
func rowTypes(m *msgReader) []int {
	oids := make([]int, m.int16())
	for i := range oids {
		m.string()
		m.int32() // table OID
		m.int16() // attribute number
		oids[i] = m.int32()
		m.int16() // size
		m.int32() // modifier
		m.int16() // format
	}
	return oids
}

// simpleTypes runs sql on the simple protocol and returns the type OIDs of
// its RowDescription.
func simpleTypes(t *testing.T, nc net.Conn, r *bufio.Reader, sql string) []int {
	t.Helper()
	writeMsg(t, nc, msgQuery, []byte(sql+"\x00"))
	var oids []int
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		switch typ {
		case msgRowDescription:
			oids = rowTypes(&msgReader{buf: payload})
		case msgErrorResponse:
			t.Fatalf("%s: %+v", sql, decodeError(&msgReader{buf: payload}))
		case msgReadyForQuery:
			return oids
		}
	}
}

func TestWireParamKinds(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE codes (id INT, code VARCHAR, ok BOOLEAN)`)
	c := dialT(t, srv)
	codes := []string{"02134", "1e3", "007", "7", "7"}
	for i, code := range codes {
		if _, err := c.Query(`INSERT INTO codes VALUES ($1, $2, $3)`, i, code, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(`INSERT INTO codes VALUES (5, 'x', 'false')`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT code, ok FROM codes ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range append(codes, "x") {
		if got := res.Get(i, 0); got != want {
			t.Errorf("code %d stored as %q, want %q", i, got, want)
		}
		if got, want := res.Get(i, 1), map[bool]string{true: "t", false: "f"}[i%2 == 0 && i < 5]; got != want {
			t.Errorf("ok %d stored as %q, want %q", i, got, want)
		}
	}
	for code, want := range map[string]string{"007": "1", "7": "2", "1e3": "1", "1000": "0", "2134": "0"} {
		res, err := c.Query(`SELECT COUNT(*) FROM codes WHERE code = $1`, code)
		if err != nil || res.Get(0, 0) != want {
			t.Errorf("COUNT(*) WHERE code = %q: %q (%v), want %s", code, res.Get(0, 0), err, want)
		}
	}
	res, err = c.Query(`SELECT id FROM codes WHERE id IN ($1, $2) AND ok = $3 ORDER BY id`, "2", "04", "t")
	if err != nil || len(res.Rows) != 2 || res.Get(0, 0) != "2" || res.Get(1, 0) != "4" {
		t.Errorf("IN over INT and = over BOOLEAN: %+v, %v", res, err)
	}
	if res, err := c.Query(`UPDATE codes SET code = $1 WHERE id BETWEEN $2 AND $3`, "0042", "0", "1"); err != nil || res.Tag != "UPDATE 2" {
		t.Errorf("UPDATE: %+v, %v", res, err)
	}
	if res, err := c.Query(`SELECT code FROM codes WHERE id = 1`); err != nil || res.Get(0, 0) != "0042" {
		t.Errorf("SET column: %+v, %v", res, err)
	}
	// A parameter where a number or a boolean is meant reads as one, whatever
	// else stands beside it: bound as text, -$1 and ABS($1) were NULL, $1 +
	// $2 concatenated, and 'false' as a predicate was true.
	for _, c2 := range []struct {
		sql    string
		params []any
		want   string
	}{
		{`SELECT 1 + $1`, []any{"41"}, "42"},
		{`SELECT $1 + $2`, []any{"1", "2"}, "3"},
		{`SELECT $1 * $2 - $3`, []any{"1.5", "4", "1"}, "5"},
		{`SELECT -$1, ABS($2)`, []any{"5", "-7"}, "-5"},
		{`SELECT ABS($1)`, []any{"-7"}, "7"},
		{`SELECT COUNT(*) FROM codes WHERE id = -$1`, []any{"-2"}, "1"},
		{`SELECT COUNT(*) FROM codes WHERE ok AND $1`, []any{"false"}, "0"},
		{`SELECT COUNT(*) FROM codes WHERE ok AND $1`, []any{"true"}, "3"},
		{`SELECT COUNT(*) FROM codes WHERE NOT $1`, []any{"false"}, "6"},
		{`SELECT COUNT(*) FROM codes WHERE $1 OR id = 0`, []any{"f"}, "1"},
		{`SELECT COUNT(*) FROM codes WHERE $1`, []any{"FALSE"}, "0"},
		{`SELECT CASE WHEN $1 THEN 'yes' ELSE 'no' END`, []any{"false"}, "no"},
	} {
		if res, err := c.Query(c2.sql, c2.params...); err != nil || res.Get(0, 0) != c2.want {
			t.Errorf("%s with %q: %+v, %v; want %s", c2.sql, c2.params, res, err, c2.want)
		}
	}

	// A parameter that does not read as its kind is 22P02, not a 0.
	if _, err := c.Query(`SELECT COUNT(*) FROM codes WHERE id = $1`, "abc"); !hasCode(err, CodeInvalidTextRepresentation) {
		t.Errorf("id = 'abc': %v, want SQLSTATE %s", err, CodeInvalidTextRepresentation)
	}
	if res, err := c.Query(`SELECT COUNT(*) FROM codes WHERE id = $1`, "0"); err != nil || res.Get(0, 0) != "1" {
		t.Errorf("after the error: %+v, %v", res, err)
	}
	// So is the same text as a literal an INSERT or an UPDATE writes into
	// an INT or a BOOLEAN column, on either protocol — it was stored as 0 —
	// and the statement writes nothing.
	for _, sql := range []string{
		`INSERT INTO codes VALUES (9, 'y', 't'), ('abc', 'z', 't')`,
		`INSERT INTO codes (id) VALUES ('1.5')`,
		`INSERT INTO codes VALUES (9, 'y', 'yes')`,
		`UPDATE codes SET id = 'abc' WHERE id = 0`,
	} {
		if _, err := c.Simple(sql); !hasCode(err, CodeInvalidTextRepresentation) {
			t.Errorf("%s: %v, want SQLSTATE %s", sql, err, CodeInvalidTextRepresentation)
		}
		if _, err := c.Query(sql); !hasCode(err, CodeInvalidTextRepresentation) {
			t.Errorf("%s (extended): %v, want SQLSTATE %s", sql, err, CodeInvalidTextRepresentation)
		}
	}
	if res, err := c.Query(`SELECT COUNT(*), MIN(id) FROM codes`); err != nil || res.Get(0, 0) != "6" || res.Get(0, 1) != "0" {
		t.Errorf("after the refused writes: %+v, %v", res, err)
	}
}

// bindBinary binds the unnamed portal to stmt with every parameter, and
// every result column when results is set, in binary format; a nil
// parameter is NULL.
func bindBinary(stmt string, results bool, params ...[]byte) wireMsg {
	p := binary.BigEndian.AppendUint16([]byte("\x00"+stmt+"\x00"), 1)
	p = binary.BigEndian.AppendUint16(p, 1)
	p = binary.BigEndian.AppendUint16(p, uint16(len(params)))
	for _, b := range params {
		if b == nil {
			p = binary.BigEndian.AppendUint32(p, 0xffffffff)
			continue
		}
		p = append(binary.BigEndian.AppendUint32(p, uint32(len(b))), b...)
	}
	if !results {
		return wireMsg{msgBind, binary.BigEndian.AppendUint16(p, 0)}
	}
	return wireMsg{msgBind, binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(p, 1), 1)}
}

// parseTyped is parseMsg with parameter types declared.
func parseTyped(name, sql string, oids ...int) wireMsg {
	p := binary.BigEndian.AppendUint16([]byte(name+"\x00"+sql+"\x00"), uint16(len(oids)))
	for _, oid := range oids {
		p = binary.BigEndian.AppendUint32(p, uint32(oid))
	}
	return wireMsg{msgParse, p}
}

// rowsOf writes msgs and reads up to ReadyForQuery: every DataRow's raw
// cells, the RowDescription's format codes and the first error code.
func rowsOf(t *testing.T, nc net.Conn, r *bufio.Reader, msgs ...wireMsg) (rows [][]*string, formats []int, code string) {
	t.Helper()
	for _, m := range msgs {
		writeMsg(t, nc, m.typ, m.payload)
	}
	for {
		typ, payload, err := readFrame(r, DefaultMaxMessage)
		if err != nil {
			t.Fatal(err)
		}
		m := &msgReader{buf: payload}
		switch typ {
		case msgDataRow:
			rows = append(rows, decodeDataRow(m))
		case msgRowDescription:
			for i, n := 0, m.int16(); i < n; i++ {
				m.string()
				m.pos += 4 + 2 + 4 + 2 + 4
				formats = append(formats, m.int16())
			}
		case msgErrorResponse:
			if code == "" {
				code = decodeError(m).Code
			}
		case msgReadyForQuery:
			return rows, formats, code
		}
	}
}

// TestWireBinaryFormats: the types ParameterDescription and RowDescription
// announce are ones a client may choose binary for — pgx does, for every
// one of them, and so does pgjdbc once a statement is prepared on
// the server — so Bind reads binary parameters of each and Execute writes
// binary cells of each: big-endian int8 and float8 (and int2, int4, float4
// a client declares), a one-byte bool, a timestamp's microseconds since
// 2000-01-01, and text's bytes.
func TestWireBinaryFormats(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE bin (k INT, f DOUBLE, b BOOLEAN, ts TIMESTAMP, v VARCHAR)`)
	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	be64 := func(u uint64) []byte { return binary.BigEndian.AppendUint64(nil, u) }
	be32 := func(u uint32) []byte { return binary.BigEndian.AppendUint32(nil, u) }
	ts := time.Date(2015, 4, 13, 9, 30, 0, 123000, time.UTC)
	tsBin := be64(uint64(ts.UnixMicro() - pgEpoch))
	const ins = `INSERT INTO bin VALUES ($1, $2, $3, $4, $5)`

	// As described: int8, float8, bool, timestamp, text.
	if _, _, code := rowsOf(t, nc, r, parseMsg("", ins),
		bindBinary("", false, be64(7), be64(math.Float64bits(2.5)), []byte{1}, tsBin, []byte("007")),
		executeMsg("", 0), syncMsg); code != "" {
		t.Fatalf("binary INSERT: %s", code)
	}
	// As declared: int4, float4, bool, timestamptz, varchar.
	if _, _, code := rowsOf(t, nc, r, parseTyped("", ins, oidInt4, oidFloat4, oidBool, oidTimestamptz, oidVarchar),
		bindBinary("", false, be32(uint32(0xfffffff8)), be32(math.Float32bits(-0.5)), []byte{0}, tsBin, nil),
		executeMsg("", 0), syncMsg); code != "" {
		t.Fatalf("declared binary INSERT: %s", code)
	}

	c := dialT(t, srv)
	res, err := c.Query(`SELECT k, f, b, ts, v FROM bin ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]string{{"-8", "-0.5", "f", "2015-04-13 09:30:00.000123", ""}, {"7", "2.5", "t", "2015-04-13 09:30:00.000123", "007"}} {
		for j := range want {
			if got := res.Get(i, j); got != want[j] {
				t.Errorf("row %d column %d stored as %q, want %q", i, j, got, want[j])
			}
		}
	}

	// Binary results, in the formats the RowDescription names.
	rows, formats, code := rowsOf(t, nc, r, parseMsg("", `SELECT k, f, b, ts, v, k || v FROM bin WHERE k = $1`),
		bindBinary("", true, be64(7)), describeMsg('P', ""), executeMsg("", 0), syncMsg)
	if code != "" || len(rows) != 1 || !reflect.DeepEqual(formats, []int{1, 1, 1, 1, 1, 1}) {
		t.Fatalf("binary SELECT: %s, %d rows, formats %v", code, len(rows), formats)
	}
	cell := func(p *string) string {
		if p == nil {
			return "<NULL>"
		}
		return *p
	}
	for j, want := range [][]byte{be64(7), be64(math.Float64bits(2.5)), {1}, tsBin, []byte("007"), []byte("7007")} {
		if got := cell(rows[0][j]); got != string(want) {
			t.Errorf("binary cell %d: %q, want %q", j, got, want)
		}
	}

	// A parameter the plan leaves open takes the type its client declares.
	rows, _, code = rowsOf(t, nc, r, parseTyped("", `SELECT $1 + $2, $3`, oidInt4, oidInt8, 0),
		bindBinary("", false, be32(1), be64(2), []byte("x")), executeMsg("", 0), syncMsg)
	if code != "" || len(rows) != 1 || cell(rows[0][0]) != "3" || cell(rows[0][1]) != "x" {
		t.Errorf("declared parameters: %s %d rows", code, len(rows))
	}

	// A binary value of a width its type does not have is 22P03; a format
	// code other than 0 or 1, or as many result codes as no column count,
	// breaks the protocol.
	for _, tc := range []struct {
		msgs []wireMsg
		code string
	}{
		{[]wireMsg{parseMsg("", `SELECT k FROM bin WHERE k = $1`), bindBinary("", false, []byte{0, 0, 7})}, CodeInvalidBinaryRepresentation},
		{[]wireMsg{parseMsg("", `SELECT k FROM bin WHERE b = $1`), bindBinary("", false, be32(1))}, CodeInvalidBinaryRepresentation},
		{[]wireMsg{parseTyped("", `SELECT $1`, 2950), bindBinary("", false, make([]byte, 16))}, CodeFeatureNotSupported},
		{[]wireMsg{parseMsg("", `SELECT k FROM bin`), {msgBind, []byte("\x00\x00\x00\x01\x00\x02\x00\x00\x00\x00")}}, CodeProtocolViolation},
		{[]wireMsg{parseMsg("", `SELECT k, f, b FROM bin`), {msgBind, []byte("\x00\x00\x00\x00\x00\x00\x00\x02\x00\x01\x00\x01")}}, CodeProtocolViolation},
	} {
		if _, _, code := rowsOf(t, nc, r, append(tc.msgs, executeMsg("", 0), syncMsg)...); code != tc.code {
			t.Errorf("%q: SQLSTATE %s, want %s", tc.msgs[1].payload, code, tc.code)
		}
	}
}

func TestWireDescribedKinds(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE kv (k INT, v VARCHAR, f DOUBLE, b BOOLEAN, ts TIMESTAMP)`)
	nc, r := rawDial(t, srv)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, tc := range []struct {
		sql          string
		params, cols []int
	}{
		{`SELECT k, v, f, b, ts FROM kv WHERE k = $1`, []int{oidInt8}, []int{oidInt8, oidText, oidFloat8, oidBool, oidTimestamp}},
		{`SELECT COUNT(*), SUM(k), AVG(k), MAX(f), k || v, f * 2, k / 2, UPPER(v), NULL FROM kv WHERE f > $2 AND v IN ($1) GROUP BY k, v, f`,
			[]int{oidText, oidFloat8}, []int{oidInt8, oidInt8, oidFloat8, oidFloat8, oidText, oidFloat8, oidText, oidText, oidText}},
		{`INSERT INTO kv VALUES ($1, $2, $3, $4, $5)`, []int{oidInt8, oidText, oidFloat8, oidBool, oidTimestamp}, nil},
		{`UPDATE kv SET f = $1 WHERE ts < $2 AND $3 = b`, []int{oidFloat8, oidTimestamp, oidBool}, nil},
		{`SELECT $1, UPPER($2)`, []int{oidText, oidText}, []int{oidText, oidText}},
	} {
		params, cols := describeTypes(t, nc, r, "", tc.sql)
		if !reflect.DeepEqual(params, tc.params) || !reflect.DeepEqual(cols, tc.cols) {
			t.Errorf("%s: described parameters %v and columns %v, want %v and %v", tc.sql, params, cols, tc.params, tc.cols)
		}
	}

	// A column is described by its kind whatever the rows hold: none, or
	// NULLs throughout the first batch.
	for _, sql := range []string{`SELECT f, k FROM kv`, `SELECT f, k FROM kv WHERE k > 0`} {
		if got := simpleTypes(t, nc, r, sql); !reflect.DeepEqual(got, []int{oidFloat8, oidInt8}) {
			t.Errorf("%s over an empty table: %v", sql, got)
		}
	}
	eng.MustQuery(`INSERT INTO kv (k) VALUES (1), (2)`)
	if got := simpleTypes(t, nc, r, `SELECT f, b, ts, k FROM kv`); !reflect.DeepEqual(got, []int{oidFloat8, oidBool, oidTimestamp, oidInt8}) {
		t.Errorf("NULL throughout the batch: %v", got)
	}

	// Parameter kinds are fixed at Parse, as in PostgreSQL: a table replaced
	// after it does not change how the statement binds.
	eng.MustQuery(`CREATE TABLE later (a INT)`)
	if params, _ := describeTypes(t, nc, r, "fixed", `SELECT a FROM later WHERE a = $1`); !reflect.DeepEqual(params, []int{oidInt8}) {
		t.Fatalf("fixed: %v", params)
	}
	eng.MustQuery(`DROP TABLE later`)
	eng.MustQuery(`CREATE TABLE later (a VARCHAR)`)
	if types, code := exchange(t, nc, r, bindMsg("", "fixed", "abc"), executeMsg("", 0), syncMsg); types != "EZ" || code != CodeInvalidTextRepresentation {
		t.Errorf("Bind after the DDL: %q %s, want the INT parameter's 22P02", types, code)
	}
}
