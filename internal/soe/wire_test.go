package soe

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/columnstore"
	"repro/internal/distql"
	"repro/internal/netsim"
	"repro/internal/sharedlog"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// The TestWire suite (`make soewire`, under -race) holds the SOE wire
// format to what repeats: round trips, allocation counts, row counters
// and a barrier — no clocks.

// --- generators -------------------------------------------------------------

func genString(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return ""
	case 1:
		return "\xff\xfe\x00"
	default:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
}

func genValue(r *rand.Rand) value.Value {
	switch r.Intn(7) {
	case 0:
		return value.Null
	case 1:
		return value.Int(int64(r.Uint64()))
	case 2:
		return value.Float(math.Float64frombits(r.Uint64())) // NaN payloads included
	case 3:
		return value.String(genString(r))
	case 4:
		return value.Bool(r.Intn(2) == 0)
	case 5:
		return value.TimeMicros(int64(r.Uint64()))
	default:
		return value.Float(math.Copysign(0, -1))
	}
}

// genRows returns zero rows as nil and a zero-width row as nil, which is
// how they come back: the format has no separate "absent".
func genRows(r *rand.Rand) []value.Row {
	var rows []value.Row
	width := r.Intn(5)
	for i := r.Intn(6); i > 0; i-- {
		if r.Intn(8) == 0 {
			width = r.Intn(5) // ragged blocks decode too
		}
		var row value.Row
		for j := 0; j < width; j++ {
			row = append(row, genValue(r))
		}
		rows = append(rows, row)
	}
	return rows
}

func genStrings(r *rand.Rand) []string {
	var out []string
	for i := r.Intn(4); i > 0; i-- {
		out = append(out, genString(r))
	}
	return out
}

func genWrites(r *rand.Rand) []LogWrite {
	var ws []LogWrite
	for i := r.Intn(8); i > 0; i-- {
		w := LogWrite{Table: []string{"orders", "items", ""}[r.Intn(3)], Partition: r.Intn(3)}
		if r.Intn(16) == 0 {
			w.Partition = -1 - r.Intn(3)
		}
		if r.Intn(3) == 0 {
			w.Kind, w.Key = writeDelete, genString(r)
		} else if rows := genRows(r); len(rows) > 0 {
			w.Row = rows[0]
		}
		ws = append(ws, w)
	}
	return ws
}

func genEntries(r *rand.Rand) []LogEntry {
	var es []LogEntry
	for i := r.Intn(4); i > 0; i-- {
		es = append(es, LogEntry{Pos: r.Uint64(), Data: appendSections(nil, genWrites(r))})
	}
	return es
}

// --- comparisons ------------------------------------------------------------

func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			w := b[i][j]
			if v.K != w.K || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

func sameEntries(a, b []LogEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// writesOf decodes every section of an entry back into the write list.
func writesOf(data []byte) ([]LogWrite, error) {
	secs, err := readEntry(data, func([]byte, int) bool { return true })
	var ws []LogWrite
	for _, s := range secs {
		for _, row := range s.rows {
			ws = append(ws, LogWrite{Table: s.table, Partition: s.part, Kind: writeInsert, Row: row})
		}
		for _, key := range s.keys {
			ws = append(ws, LogWrite{Table: s.table, Partition: s.part, Kind: writeDelete, Key: key})
		}
	}
	return ws, err
}

func sameWrites(a, b []LogWrite) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Partition != b[i].Partition || a[i].Kind != b[i].Kind ||
			a[i].Key != b[i].Key || !sameRows([]value.Row{a[i].Row}, []value.Row{b[i].Row}) {
			return false
		}
	}
	return true
}

// recode encodes m and decodes it into a fresh T.
func recode[T any, P wirePtr[T]](m wireMsg) (T, error) {
	return decode[T, P](netsim.Message{Kind: "test", Payload: encode(m)})
}

// (a) every message kind and the log entry survive a round trip, including
// Parts == nil vs []int{}, zero rows, zero-width rows and empty strings;
// and a node's answer encoded as its statement runs (execAnswer), into a
// lent buffer that held another, is ExecResp's encoding byte for byte.
func TestWireRoundTrip(t *testing.T) {
	check := func(name string, f func(r *rand.Rand) bool) {
		t.Helper()
		if err := quick.Check(func(seed int64) bool { return f(rand.New(rand.NewSource(seed))) }, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check("ExecReq", func(r *rand.Rand) bool {
		m := ExecReq{Token: genString(r), SQL: genString(r), Table: genString(r), Table2: genString(r), Partial: r.Intn(2) == 0}
		switch r.Intn(3) {
		case 0:
			m.Parts = []int{}
		case 1:
			m.Parts = []int{r.Intn(9), r.Intn(1 << 20), -1}
		}
		for range r.Intn(3) {
			m.Params = append(m.Params, genValue(r))
		}
		got, err := recode[ExecReq](m)
		ok := err == nil && sameRows([]value.Row{got.Params}, []value.Row{m.Params})
		got.Params, m.Params = nil, nil
		return ok && reflect.DeepEqual(got, m)
	})
	check("ExecResp", func(r *rand.Rand) bool {
		m := ExecResp{Cols: genStrings(r), Rows: genRows(r), RowsScanned: r.Intn(1 << 30), Morsels: r.Intn(99), Completeness: r.Float64(), Err: genString(r)}
		if s := genString(r); s != "" {
			m.State = []byte(s)
		}
		got, err := recode[ExecResp](m)
		ok := err == nil && sameRows(got.Rows, m.Rows)
		got.Rows, m.Rows = nil, nil
		return ok && reflect.DeepEqual(got, m)
	})
	check("execAnswer", func(r *rand.Rand) bool {
		m := ExecResp{RowsScanned: r.Intn(1 << 30), Morsels: r.Intn(99)}
		cols := make([]sqlexec.Column, r.Intn(4))
		for i := range cols {
			cols[i].Name = genString(r)
		}
		partial := r.Intn(2) == 0
		if !partial {
			m.Cols = make([]string, len(cols))
			for i, c := range cols {
				m.Cols[i] = c.Name
			}
		}
		if r.Intn(3) == 0 { // a fold state, and no rows
			m.State = []byte(genString(r) + "x")
		} else { // rows as an engine makes them: one width
			for range r.Intn(2 * sqlexec.BatchRows) {
				row := make(value.Row, len(cols))
				for j := range row {
					row[j] = genValue(r)
				}
				m.Rows = append(m.Rows, row)
			}
		}
		a := execAnswer{buf: []byte(genString(r))[:0], names: !partial}
		a.Header(cols)
		for rows := m.Rows; len(rows) > 0; {
			n := min(len(rows), 1+r.Intn(sqlexec.BatchRows))
			b := sqlexec.RowsBatch(rows[:n])
			a.Batch(&b)
			rows = rows[n:]
		}
		a.buf = append(a.buf, m.State...)
		return bytes.Equal(a.finish(m.RowsScanned, m.Morsels), encode(m))
	})
	check("CreateTempReq", func(r *rand.Rand) bool {
		m := CreateTempReq{Token: genString(r), Name: genString(r), Cols: genStrings(r), Rows: genRows(r)}
		for range m.Cols {
			m.Kinds = append(m.Kinds, uint8(r.Intn(6)))
		}
		got, err := recode[CreateTempReq](m)
		ok := err == nil && sameRows(got.Rows, m.Rows)
		got.Rows, m.Rows = nil, nil
		return ok && reflect.DeepEqual(got, m)
	})
	check("CommitReq", func(r *rand.Rand) bool {
		m := CommitReq{Token: genString(r), TxnID: genString(r), Writes: genWrites(r)}
		token, txnID, n, sections, err := commitHeader(encode(m))
		if err != nil || token != m.Token || txnID != m.TxnID || n != len(m.Writes) {
			return false
		}
		ws, err := writesOf(sections)
		return err == nil && sameWrites(ws, m.Writes)
	})
	check("log entry", func(r *rand.Rand) bool {
		want := genWrites(r)
		ws, err := writesOf(appendSections(nil, want))
		return err == nil && sameWrites(ws, want)
	})
	check("CommitResp", func(r *rand.Rand) bool {
		m := CommitResp{Pos: r.Uint64(), Err: genString(r)}
		got, err := recode[CommitResp](m)
		return err == nil && got == m
	})
	check("ApplyReq", func(r *rand.Rand) bool {
		m := ApplyReq{Token: genString(r), Entries: genEntries(r)}
		got, err := recode[ApplyReq](m)
		return err == nil && got.Token == m.Token && sameEntries(got.Entries, m.Entries)
	})
	check("PollReq", func(r *rand.Rand) bool {
		m := PollReq{Token: genString(r), From: r.Uint64(), Max: r.Intn(1 << 20)}
		got, err := recode[PollReq](m)
		return err == nil && got == m
	})
	check("PollResp", func(r *rand.Rand) bool {
		m := PollResp{Entries: genEntries(r), Next: r.Uint64(), Tail: r.Uint64(), Err: genString(r)}
		got, err := recode[PollResp](m)
		return err == nil && got.Next == m.Next && got.Tail == m.Tail && got.Err == m.Err && sameEntries(got.Entries, m.Entries)
	})
	check("SnapshotReq", func(r *rand.Rand) bool {
		m := SnapshotReq{Token: genString(r), Table: genString(r), Partition: r.Intn(64)}
		got, err := recode[SnapshotReq](m)
		return err == nil && got == m
	})
	check("SnapshotResp", func(r *rand.Rand) bool {
		m := SnapshotResp{Rows: genRows(r), NextPos: r.Uint64(), Err: genString(r)}
		got, err := recode[SnapshotResp](m)
		return err == nil && sameRows(got.Rows, m.Rows) && got.NextPos == m.NextPos && got.Err == m.Err
	})
	// The control kinds (JSON): text fields must be valid UTF-8 there.
	check("control kinds", func(r *rand.Rand) bool {
		cu := CatchUpReq{Token: "tok", Table: "orders", Peers: map[int]string{r.Intn(8): "node1"}}
		gotCU, err1 := recode[CatchUpReq](cu)
		sr := StatsResp{Snapshot: stats.Snapshot{Counters: []stats.CounterSnap{{Name: "c", Labels: []string{"node=n"}, Value: r.Int63()}}}}
		gotSR, err3 := recode[StatsResp](sr)
		return err1 == nil && err3 == nil && reflect.DeepEqual(gotCU, cu) && reflect.DeepEqual(gotSR, sr)
	})
	// A gauge JSON cannot carry becomes the reply's error, not a panic.
	bad, err := recode[StatsResp](StatsResp{Snapshot: stats.Snapshot{Gauges: []stats.GaugeSnap{{Name: "g", Value: math.NaN()}}}})
	if err != nil || !strings.Contains(bad.Err, "NaN") {
		t.Fatalf("NaN gauge: resp=%+v err=%v", bad, err)
	}
}

// --- (b) fuzz targets -------------------------------------------------------

// messageDecoders is every decoder a payload from the network can reach.
var messageDecoders = []func([]byte) error{
	func(b []byte) error { return new(ExecReq).readWire(b) },
	func(b []byte) error { return new(ExecResp).readWire(b) },
	func(b []byte) error { return new(CreateTempReq).readWire(b) },
	func(b []byte) error { _, _, _, _, err := commitHeader(b); return err },
	func(b []byte) error { return new(CommitResp).readWire(b) },
	func(b []byte) error { return new(ApplyReq).readWire(b) },
	func(b []byte) error { return new(PollReq).readWire(b) },
	func(b []byte) error { return new(PollResp).readWire(b) },
	func(b []byte) error { return new(SnapshotReq).readWire(b) },
	func(b []byte) error { return new(SnapshotResp).readWire(b) },
}

// seedMessages is one good encoding per decoder, in messageDecoders order.
func seedMessages(r *rand.Rand) [][]byte {
	return [][]byte{
		encode(ExecReq{Token: "tok", SQL: "SELECT 1", Table: "orders", Parts: []int{0, 4}}),
		encode(ExecResp{Cols: []string{"a", "b"}, Rows: genRows(r), RowsScanned: 7, Completeness: 1}),
		encode(CreateTempReq{Token: "tok", Name: "tmp", Cols: []string{"a"}, Kinds: []uint8{1}, Rows: genRows(r)}),
		encode(CommitReq{Token: "tok", TxnID: "txn-1", Writes: genWrites(r)}),
		encode(CommitResp{Pos: 3}),
		encode(ApplyReq{Token: "tok", Entries: genEntries(r)}),
		encode(PollReq{Token: "tok", From: 5, Max: 4096}),
		encode(PollResp{Entries: genEntries(r), Next: 8, Tail: 9}),
		encode(SnapshotReq{Token: "tok", Table: "orders", Partition: 3}),
		encode(SnapshotResp{Rows: genRows(r), NextPos: 5}),
	}
}

// boundedAlloc fails the test when fn allocates more than a constant times
// the input it was handed: a decoder may not size anything by a number it
// read before checking that number against the bytes it has.
func boundedAlloc(t *testing.T, input int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*input); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", input, got, limit)
	}
}

// FuzzDecodeEntry: a shared-log entry's write sections, whatever their
// bytes, read without a panic and within a constant times them, all
// partitions' or some.
func FuzzDecodeEntry(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(appendSections(nil, genWrites(r)))
	}
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		boundedAlloc(t, len(data), func() {
			readEntry(data, func([]byte, int) bool { return true })
			readEntry(data, func(_ []byte, part int) bool { return part%2 == 0 })
		})
	})
}

// FuzzDecodeMessage: every message decoder, whatever its bytes, never
// panics and never allocates more than a constant times them; a node's
// task and push read the same into a value that held a message as into a
// zero one.
func FuzzDecodeMessage(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		for k, m := range seedMessages(r) {
			f.Add(uint8(k), m)
		}
	}
	// A node's share of a distributed SELECT, and its answer: an aggregate's
	// fold state.
	f.Add(uint8(0), encode(ExecReq{Token: "tok", SQL: "SELECT region, SUM(amount) FROM orders GROUP BY region", Table: "orders", Parts: []int{1, 5}, Partial: true}))
	f.Add(uint8(0), encode(ExecReq{Token: "tok", SQL: "SELECT id FROM orders WHERE id >= $1 AND region = $2", Params: []value.Value{value.Int(7), value.String("EMEA")}, Table: "orders", Parts: []int{1, 5}, Partial: true}))
	f.Add(uint8(1), encode(ExecResp{State: partialState(f), RowsScanned: 9, Completeness: 1}))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := int(kind) % len(messageDecoders)
		boundedAlloc(t, len(data), func() { messageDecoders[k](data) })
		switch k {
		case 0: // a node's task
			decodeKept[ExecReq](t, ExecReq{Token: "old", SQL: "SELECT 2", Params: []value.Value{value.Int(1), value.String("x")},
				Table: "was", Table2: "also", Parts: []int{3, 1, 4}, Partial: true}, data)
		case 5: // a node's push
			decodeKept[ApplyReq](t, ApplyReq{Token: "old", Entries: []LogEntry{{Pos: 7, Data: []byte("stale")}, {Pos: 8}}}, data)
		}
	})
}

// decodeKept decodes data into a value that held another message first,
// as a node decodes every task and push into one it keeps, and into a zero
// value, and fails unless the two read the same: nothing of the message
// before survives the decode.
func decodeKept[T wireMsg, P wirePtr[T]](t *testing.T, held T, data []byte) {
	t.Helper()
	kept := held
	if err := P(&kept).readWire(encode(held)); err != nil {
		t.Fatal(err)
	}
	var fresh T
	errK, errF := P(&kept).readWire(data), P(&fresh).readWire(data)
	if (errK == nil) != (errF == nil) {
		t.Fatalf("%T into a value that held a message: %v; into a zero one: %v", held, errK, errF)
	}
	if errF == nil && !bytes.Equal(encode(kept), encode(fresh)) {
		t.Fatalf("%T into a value that held a message reads %+v, into a zero one %+v", held, kept, fresh)
	}
}

// Counts that lie are refused before anything is sized by them.
func TestWireHostileCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	for name, payload := range map[string][]byte{
		"row count":     append(append([]byte{0}, huge...), 1, 1),            // ExecResp: 0 cols, 2^56 rows
		"row width":     append(append([]byte{0, 1}, huge...), 0),            // one row of 2^56 values
		"string length": append(append([]byte{0, 1, 1, 3}, huge...), 'a'),    // one value, a string of 2^56 bytes
		"column count":  append(huge, 1, 'a'),                                // 2^56 column names
		"trailing":      append(encode(ExecResp{Completeness: 1}), 0),        // one byte too many
		"truncated":     encode(ExecResp{Err: "some error"})[:14],            // cut inside the last field
		"unknown kind":  {0, 1, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // a value of kind 9
	} {
		boundedAlloc(t, len(payload), func() {
			if err := new(ExecResp).readWire(payload); err == nil {
				t.Errorf("%s: hostile ExecResp decoded", name)
			}
		})
	}
	for name, entry := range map[string][]byte{
		"section length": {1, 't', 0, 0, 0xff, 0xff, 0xff, 0x7f},
		"section kind":   {1, 't', 0, 2, 1, 0, 0, 0, 0},
		"payload count":  append([]byte{1, 't', 0, 0, 9, 0, 0, 0}, append(huge, 0)...),
	} {
		boundedAlloc(t, len(entry), func() {
			if _, err := readEntry(entry, func([]byte, int) bool { return true }); err == nil {
				t.Errorf("%s: hostile entry decoded", name)
			}
		})
	}
}

// A truncated, bit-flipped or over-long Apply, Poll or Exec payload fails
// that RPC with an error the retry loop does not retry; nothing panics and
// the node and broker keep serving.
func TestWireHostilePayloadFailsTheRPC(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 10)
	tok := c.Disc.Token()
	good := map[string]struct {
		to      string
		payload []byte
	}{
		MsgExec:  {c.Nodes[0].Name, encode(ExecReq{Token: tok, SQL: "SELECT COUNT(*) FROM orders"})},
		MsgPoll:  {c.Broker.Name, encode(PollReq{Token: tok, From: 0, Max: 8})},
		MsgApply: {c.Nodes[0].Name, encode(ApplyReq{Token: tok, Entries: []LogEntry{{Pos: 99}}})},
	}
	for kind, g := range good {
		if _, err := c.Net.Call("client", g.to, netsim.Message{Kind: kind, Payload: g.payload}); err != nil {
			t.Fatalf("%s: good payload refused: %v", kind, err)
		}
		flipped := append([]byte(nil), g.payload...)
		flipped[0] ^= 0x80 // the token's length now runs on into the token
		for name, bad := range map[string][]byte{
			"truncated":   g.payload[:len(g.payload)-1],
			"bit-flipped": flipped,
			"over-long":   append(append([]byte(nil), g.payload...), 0),
		} {
			_, err := c.Net.Call("client", g.to, netsim.Message{Kind: kind, Payload: bad})
			if err == nil || retryable(err) {
				t.Fatalf("%s %s: err=%v retryable=%v", kind, name, err, err != nil && retryable(err))
			}
		}
	}
	// A well-framed Apply whose entry is cut short: the node reports the
	// position, counts it, and has still moved past it.
	entry := appendSections(nil, []LogWrite{{Table: "orders", Partition: 0, Row: value.Row{value.String("Z1"), value.String("EMEA"), value.Float(1)}}})
	_, err := c.Net.Call("client", c.Nodes[0].Name, netsim.Message{Kind: MsgApply,
		Payload: encode(ApplyReq{Token: tok, Entries: []LogEntry{{Pos: 123, Data: entry[:len(entry)-2]}}})})
	if err == nil || retryable(err) || !strings.Contains(err.Error(), "position 123") {
		t.Fatalf("cut entry: err=%v", err)
	}
	if n, _ := c.Nodes[0].Obs().Snapshot().Counter("soe_log_decode_errors_total", "node="+c.Nodes[0].Name); n != 1 {
		t.Fatalf("soe_log_decode_errors_total=%d, want 1", n)
	}
	if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil || r.Rows[0][0].AsInt() != 10 {
		t.Fatalf("cluster after hostile payloads: %v %v", r, err)
	}
	// An unknown message kind is an error at the broker too, as it is at
	// the stats service and the nodes.
	if _, err := c.Net.Call("client", c.Broker.Name, netsim.Message{Kind: "bogus"}); err == nil {
		t.Fatal("broker answered an unknown message kind")
	}
}

// nullStore is a log unit that accepts every write and keeps none. A
// map-backed store grows in steps that depend on the map's hash seed,
// which an allocation count cannot tell from work done per row.
type nullStore struct{}

func (nullStore) Put(uint64, []byte) error         { return nil }
func (nullStore) Get(uint64) ([]byte, bool, error) { return nil, false, nil }
func (nullStore) Delete(uint64) error              { return nil }

// (c) The broker does not parse rows: handling a Commit allocates the same
// number of objects for a 1-row and a 1,000-row write set.
func TestWireBrokerAllocsIndependentOfRows(t *testing.T) {
	measure := func(rows int) float64 {
		net, disc := netsim.New(netsim.Config{}), NewDiscovery("s")
		log, err := sharedlog.New(sharedlog.Config{Stripes: [][]*sharedlog.Unit{{sharedlog.NewUnit(nullStore{})}}})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBroker("v2transact", net, disc, log)
		writes := make([]LogWrite, rows)
		for i := range writes {
			writes[i] = LogWrite{Table: "orders", Partition: i % 8, Row: value.Row{value.Int(int64(i)), value.String("EMEA"), value.Float(1.5)}}
		}
		msg := netsim.Message{Kind: MsgCommit, Payload: encode(CommitReq{Token: disc.Token(), Writes: writes})}
		return testing.AllocsPerRun(100, func() {
			if _, err := b.handle("client", msg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, thousand := measure(1), measure(1000); one != thousand {
		t.Fatalf("allocations per commit: %v for 1 row, %v for 1,000", one, thousand)
	}
}

// applyRows sums soe_apply_rows_total over the cluster's nodes.
func applyRows(c *Cluster) int64 {
	var n int64
	for _, node := range c.Nodes {
		v, _ := node.Obs().Snapshot().Counter("soe_apply_rows_total", "node="+node.Name)
		n += v
	}
	return n
}

// (d) Decode once: an R-row insert materialises each row once per node
// hosting its partition — R in all without replicas, 2R with one replica
// of every partition — however many nodes the entry was pushed to.
func TestWireRowsDecodedOncePerHost(t *testing.T) {
	const rows = 240
	c := newTestCluster(t, 4, OLTP)
	loadOrders(t, c, rows) // 8 partitions over 4 nodes
	if got := applyRows(c); got != rows {
		t.Fatalf("soe_apply_rows_total = %d after %d rows without replicas", got, rows)
	}
	if err := c.ReplicateTable("orders"); err != nil {
		t.Fatal(err)
	}
	var more []value.Row
	for i := 0; i < rows; i++ {
		more = append(more, value.Row{value.String(fmt.Sprintf("R%04d", i)), value.String("APJ"), value.Float(1)})
	}
	if _, err := c.Insert("orders", more...); err != nil {
		t.Fatal(err)
	}
	if got := applyRows(c) - rows; got != 2*rows {
		t.Fatalf("soe_apply_rows_total grew by %d after %d rows with one replica each, want %d", got, rows, 2*rows)
	}
	if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil || r.Rows[0][0].AsInt() != 2*rows {
		t.Fatalf("count: %v %v", r, err)
	}
}

// (e) The push is parallel: every node's Apply handler blocks on a barrier
// that opens only when all of them are in flight at once. A broker that
// pushed to one node after another would never open it.
func TestWirePushReachesAllNodesAtOnce(t *testing.T) {
	c := newTestCluster(t, 4, OLTP)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 8); err != nil {
		t.Fatal(err)
	}
	var inFlight, stuck atomic.Int32
	open := make(chan struct{})
	for _, n := range c.Nodes {
		handle := n.handle
		c.Net.Register(n.Name, func(from string, req netsim.Message) (netsim.Message, error) {
			if req.Kind == MsgApply {
				if int(inFlight.Add(1)) == len(c.Nodes) {
					close(open)
				}
				select {
				case <-open:
				case <-time.After(5 * time.Second):
					stuck.Add(1)
				}
			}
			return handle(from, req)
		})
	}
	if _, err := c.Insert("orders", value.Row{value.String("O1"), value.String("EMEA"), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if stuck.Load() != 0 || int(inFlight.Load()) != len(c.Nodes) {
		t.Fatalf("%d of %d Applies in flight together, %d gave up waiting: the push is sequential", inFlight.Load(), len(c.Nodes), stuck.Load())
	}
}

// Writes to one partition keep their order through sections, log and
// apply: a key inserted and then deleted in one transaction is gone, a key
// deleted and then inserted is there once.
func TestWireWritesKeepOrderWithinPartition(t *testing.T) {
	c := newTestCluster(t, 2, OLTP)
	loadOrders(t, c, 6)
	tbl, _ := c.Catalog.Table("orders")
	ins := func(id string, amount float64) LogWrite {
		return LogWrite{Table: "orders", Partition: tbl.PartitionFor(value.String(id)), Kind: writeInsert,
			Row: value.Row{value.String(id), value.String("EMEA"), value.Float(amount)}}
	}
	del := func(id string) LogWrite {
		return LogWrite{Table: "orders", Partition: tbl.PartitionFor(value.String(id)), Kind: writeDelete, Key: id}
	}
	req := CommitReq{Token: c.Disc.Token(), Writes: []LogWrite{
		ins("gone", 1), ins("other", 2), del("gone"), // insert, then delete
		del("O0003"), ins("O0003", 99), // delete a loaded row, then insert it anew
	}}
	if resp, err := call[CommitResp](c.Net, "client", c.Broker.Name, MsgCommit, req); err != nil || resp.Err != "" {
		t.Fatalf("commit: %v %s", err, resp.Err)
	}
	r, err := c.Query(`SELECT id, amount FROM orders WHERE id = 'gone' OR id = 'other' OR id = 'O0003' ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].S != "O0003" || r.Rows[0][1].F != 99 || r.Rows[1][0].S != "other" {
		t.Fatalf("rows after insert-delete and delete-insert: %v", r.Rows)
	}
}

// --- values JSON could not carry -------------------------------------------

func oddSchema() columnstore.Schema {
	return columnstore.Schema{
		{Name: "id", Kind: value.KindString},
		{Name: "i", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString},
		{Name: "b", Kind: value.KindBool},
		{Name: "t", Kind: value.KindTime},
	}
}

// oddRows holds what the reflected JSON encoding crashed on (NaN, ±Inf),
// rewrote (invalid UTF-8) or could have lost (-0.0, integer extremes, the
// empty string, a 1 MB string, NULL in a column of every kind).
func oddRows() []value.Row {
	ts := value.Time(time.Date(2015, 4, 13, 9, 0, 0, 123000, time.UTC))
	return []value.Row{
		{value.String("k00"), value.Int(math.MinInt64), value.Float(math.NaN()), value.String(""), value.Bool(true), ts},
		{value.String("k01"), value.Int(math.MaxInt64), value.Float(math.Inf(1)), value.String("\xff\xfe"), value.Bool(false), value.TimeMicros(math.MinInt64)},
		{value.String("k02"), value.Int(0), value.Float(math.Inf(-1)), value.String(strings.Repeat("m", 1<<20)), value.Bool(true), value.TimeMicros(0)},
		{value.String("k03"), value.Int(-1), value.Float(math.Copysign(0, -1)), value.String("plain"), value.Bool(false), ts},
		{value.String("k04"), value.Null, value.Null, value.Null, value.Null, value.Null},
		{value.String("k05"), value.Int(7), value.Float(math.Float64frombits(0x7ff8000000000abc)), value.String("\x00"), value.Null, ts},
	}
}

const oddQuery = `SELECT id, i, f, s, b, t FROM odd ORDER BY id`

// oddReference is what a single-node engine returns for the same rows.
func oddReference(t *testing.T) []value.Row {
	t.Helper()
	eng := sqlexec.NewEngine()
	entry, err := eng.Cat.CreateTable("odd", oddSchema())
	if err != nil {
		t.Fatal(err)
	}
	eng.Mgr.Register(entry.Primary())
	entry.Primary().ApplyInsert(oddRows(), eng.Mgr.Now())
	res, err := eng.Query(oddQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func wantSameBits(t *testing.T, path string, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", path, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", path, i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g.K != w.K || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
				if len(g.S) > 32 || len(w.S) > 32 {
					g.S, w.S = fmt.Sprintf("<%d bytes>", len(g.S)), fmt.Sprintf("<%d bytes>", len(w.S))
				}
				t.Fatalf("%s: row %d col %d = %#v (bits %x), want %#v (bits %x)", path, i, j, g, math.Float64bits(g.F), w, math.Float64bits(w.F))
			}
		}
	}
}

// Regression: Cluster.Insert of a NaN took the process down inside the
// RPC goroutine, and invalid UTF-8 came back as U+FFFD. Every row-carrying
// message kind now carries these rows bit for bit: Commit/Apply/Exec
// (insert and query), Snapshot (ReplicateTable, read through a failover),
// Poll (an OLAP cluster) and CreateTemp (a broadcast join).
func TestWireValuesJSONCouldNotCarry(t *testing.T) {
	want := oddReference(t)
	load := func(c *Cluster) {
		t.Helper()
		if _, err := c.CreateTable("odd", oddSchema(), "id", 2*len(c.Nodes)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert("odd", oddRows()...); err != nil {
			t.Fatal(err)
		}
	}
	query := func(path string, c *Cluster) {
		t.Helper()
		r, err := c.Query(oddQuery)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r.Partial {
			t.Fatalf("%s: partial result, lost %v", path, r.Lost)
		}
		wantSameBits(t, path, r.Rows, want)
	}

	c := newTestCluster(t, 3, OLTP)
	c.Coordinator.Retry = fastRetry
	load(c)
	query("commit+apply+exec", c)

	// Broadcast join: odd is the small side, shipped to every node of ref
	// as a temp table; the single-node engine runs the same join.
	refSchema := columnstore.Schema{{Name: "rid", Kind: value.KindString}, {Name: "oid", Kind: value.KindString}}
	if _, err := c.CreateTable("ref", refSchema, "rid", 6); err != nil {
		t.Fatal(err)
	}
	var refs []value.Row
	for i := 0; i < 40; i++ {
		refs = append(refs, value.Row{value.String(fmt.Sprintf("r%02d", i)), value.String(fmt.Sprintf("k%02d", i%8))})
	}
	if _, err := c.Insert("ref", refs...); err != nil {
		t.Fatal(err)
	}
	const joinQ = `SELECT r.rid, o.id, o.i, o.f, o.s, o.b, o.t FROM ref r JOIN odd o ON r.oid = o.id ORDER BY r.rid`
	got, plan, err := c.Coordinator.ForceStrategy(joinQ, distql.StrategyBroadcast)
	if err != nil || plan.BroadcastTable != "odd" {
		t.Fatalf("broadcast join: %v (broadcast %q)", err, plan.BroadcastTable)
	}
	byID := map[string]value.Row{}
	for _, row := range want {
		byID[row[0].S] = row
	}
	var wantJoin []value.Row
	for _, ref := range refs {
		if o, ok := byID[ref[1].S]; ok {
			wantJoin = append(wantJoin, append(value.Row{ref[0]}, o...))
		}
	}
	wantSameBits(t, "create_temp (broadcast join)", got.Rows, wantJoin)

	// Replicas are seeded by snapshot; with a primary down, its partitions
	// are read from them.
	if err := c.ReplicateTable("odd"); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(c.Nodes[0].Name)
	query("snapshot (replica failover)", c)

	olap := newTestCluster(t, 2, OLAP)
	load(olap)
	if err := olap.SyncOLAP(); err != nil {
		t.Fatal(err)
	}
	query("poll (OLAP)", olap)
}

// An undecodable log entry used to vanish inside the broker's log read, so an
// OLAP node stepped over lost writes without a trace. Now the node is the
// decoder: it counts the entry, names its position, applies what follows
// and moves past it.
func TestWirePoisonLogEntry(t *testing.T) {
	c := newTestCluster(t, 2, OLAP)
	if _, err := c.CreateTable("orders", ordersSchema(), "id", 4); err != nil {
		t.Fatal(err)
	}
	row := func(id string) value.Row { return value.Row{value.String(id), value.String("EMEA"), value.Float(1)} }
	if _, err := c.Insert("orders", row("A1"), row("A2")); err != nil {
		t.Fatal(err)
	}
	pos, err := c.Log.Append([]byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("orders", row("B1"), row("B2"), row("B3")); err != nil {
		t.Fatal(err)
	}
	err = c.SyncOLAP()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("position %d", pos)) {
		t.Fatalf("SyncOLAP over a junk entry at %d: err=%v", pos, err)
	}
	// The entries after the junk were applied in the same pass, and every
	// poller is past it: a second drain finds nothing and reports nothing.
	if r, err := c.Query(`SELECT COUNT(*) FROM orders`); err != nil || r.Rows[0][0].AsInt() != 5 {
		t.Fatalf("after the poison entry: %v %v", r, err)
	}
	if err := c.SyncOLAP(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	for _, n := range c.Nodes {
		if got, _ := n.Obs().Snapshot().Counter("soe_log_decode_errors_total", "node="+n.Name); got != 1 {
			t.Fatalf("%s: soe_log_decode_errors_total=%d, want 1", n.Name, got)
		}
		if applied, err := n.PollOnce(16); applied != 0 || err != nil {
			t.Fatalf("%s still polling: applied=%d err=%v", n.Name, applied, err)
		}
	}
}

// partialState is a real node's answer to a distributed aggregate: the fold
// state of a float SUM and a COUNT(DISTINCT) per region.
func partialState(tb testing.TB) []byte {
	tb.Helper()
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE orders (id VARCHAR, region VARCHAR, amount DOUBLE)`)
	eng.MustQuery(`INSERT INTO orders VALUES ('a', 'EMEA', 1e15), ('b', 'APJ', 0.1), ('c', 'EMEA', 0.3)`)
	s := eng.NewSession()
	defer s.Close()
	var state []byte
	_, err := s.QueryPartial(&sqlexec.Result{}, &state, `SELECT region, SUM(amount), COUNT(DISTINCT id) FROM orders GROUP BY region`)
	if err != nil || len(state) == 0 {
		tb.Fatalf("partial aggregate: state %x, %v", state, err)
	}
	return state
}
