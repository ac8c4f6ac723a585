package soe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// The SOE data plane has one hand-written binary encoding per message and
// no reflection. Three rules hold for a committed write set:
//
//  1. Encoded once, by the coordinator: CommitReq.appendWire lays the
//     writes out as sections, one per run of writes to the same (table,
//     partition), each led by the byte length of what follows.
//  2. Opaque to the broker: it reads the commit header (token, TxnID,
//     write count) and appends the sections to the shared log as they
//     are. The same bytes are the Apply payload and what MsgPoll returns;
//     a log position rides beside an entry, never inside it, and is the
//     entry's commit timestamp (commitTS).
//  3. Decoded only by a host: a node walks the section directory, steps
//     over the partitions it does not host by length, and turns the rest
//     into rows.
//
// Layout, every integer a uvarint unless noted, a string a length and its
// raw bytes, a value value.AppendBinary's bytes:
//
//	commit  = token txnID writes section*
//	entry   = section*
//	section = table partition kind(1 byte) len(4 bytes LE) payload
//	payload = count row*          (kind 0, insert)
//	        | count key*          (kind 1, delete by key)
//	row     = width value*
//
// Encoders append and cannot fail. A node task's and a push's bytes are
// loans (callers.go says who owns them): the coordinator encodes ExecReq
// into its caller's request buffer, the node appends its ExecResp
// (execAnswer) into the receive buffer the caller lent, and the broker
// encodes ApplyReq once, into one push caller's buffer, for every OLTP
// node. Decoders fill a value the caller owns — a node decodes every task
// and push into one it keeps, so a decoder sets every field — and check
// every count and length against the bytes that remain before they
// allocate, so hostile input yields an error and allocations proportional
// to its size.

// Write kinds of a LogWrite and of a section.
const (
	writeInsert uint8 = 0
	writeDelete uint8 = 1
)

// wireMsg is a message body; each type has exactly one encoding.
type wireMsg interface {
	appendWire(dst []byte) []byte
}

// wirePtr is the decoding half of a message, on its pointer type.
type wirePtr[T any] interface {
	*T
	readWire(b []byte) error
}

func encode(m wireMsg) []byte { return m.appendWire(nil) }

// reply is every handler's answer to req: m, encoded into the receive
// buffer req lent (netsim.Message.Recv), if any.
func reply(req netsim.Message, m wireMsg) netsim.Message {
	return netsim.Message{Kind: req.Kind, Payload: m.appendWire(req.Recv[:0])}
}

func appendStr[T string | []byte](dst []byte, s T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

func appendRow(dst []byte, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = value.AppendBinary(dst, v)
	}
	return dst
}

func appendRows(dst []byte, rows []value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = appendRow(dst, row)
	}
	return dst
}

func appendEntries(dst []byte, entries []LogEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Pos)
		dst = binary.AppendUvarint(dst, uint64(len(e.Data)))
		dst = append(dst, e.Data...)
	}
	return dst
}

// appendSections lays writes out as sections, starting a new one whenever
// the table, partition or kind changes. Writes keep their order, so an
// insert and a later delete of the same key stay in order whatever the
// grouping; a writer that wants one section per partition sorts first.
func appendSections(dst []byte, writes []LogWrite) []byte {
	for i := 0; i < len(writes); {
		first := writes[i]
		j := i + 1
		for j < len(writes) && writes[j].Table == first.Table && writes[j].Partition == first.Partition && writes[j].Kind == first.Kind {
			j++
		}
		dst = appendStr(dst, first.Table)
		dst = binary.AppendUvarint(dst, uint64(first.Partition))
		dst = append(dst, first.Kind, 0, 0, 0, 0)
		start := len(dst)
		dst = binary.AppendUvarint(dst, uint64(j-i))
		for _, w := range writes[i:j] {
			if first.Kind == writeInsert {
				dst = appendRow(dst, w.Row)
			} else {
				dst = appendStr(dst, w.Key)
			}
		}
		binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(dst)-start))
		i = j
	}
	return dst
}

// rd reads one payload (value.Reader) and the SOE's compound fields.
type rd struct{ value.Reader }

var (
	errWireKind  = errors.New("soe: wire: unknown write kind")
	errWireParts = errors.New("soe: wire: partition count beyond the payload")
)

func (r *rd) strs() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// rows reads a row block. Rows of the first row's width — every row, in a
// block an engine produced — are windows of one slab.
func (r *rd) rows() []value.Row {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	rows := make([]value.Row, n)
	var slab []value.Value
	for i := range rows {
		w := r.Count(1)
		if i == 0 && w > 0 {
			slab = make([]value.Value, 0, w*min(n, len(r.Rest())/w))
		}
		if cap(slab)-len(slab) < w {
			slab = make([]value.Value, 0, w)
		}
		row := slab[len(slab) : len(slab)+w : len(slab)+w]
		slab = slab[:len(slab)+w]
		for j := range row {
			row[j] = r.Value()
		}
		rows[i] = row
	}
	return rows
}

// entries reads a list of log entries into dst's memory, each entry's data
// a window of the payload.
func (r *rd) entries(dst []LogEntry) []LogEntry {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i].Pos = r.Uvarint()
		dst[i].Data = r.Take(r.Uvarint())
	}
	return dst
}

// entrySection is one decoded section of a log entry: rows to insert or
// keys to delete on one partition.
type entrySection struct {
	table string
	part  int
	rows  []value.Row
	keys  []string
}

// readEntry decodes, in order, the sections of a log entry that want
// accepts. Every other section is stepped over by its length, so a node
// pays for the rows it hosts and no others.
func readEntry(data []byte, want func(table []byte, part int) bool) (secs []entrySection, err error) {
	r := rd{value.NewReader(data)}
	for r.Err() == nil && len(r.Rest()) > 0 {
		table, part, kind := r.Take(r.Uvarint()), int(r.Uvarint()), r.Byte()
		var payload []byte
		if l := r.Take(4); l != nil {
			payload = r.Take(uint64(binary.LittleEndian.Uint32(l)))
		}
		if kind > writeDelete {
			r.Fail(errWireKind)
		}
		if r.Err() != nil || !want(table, part) {
			continue
		}
		p := rd{value.NewReader(payload)}
		s := entrySection{table: string(table), part: part}
		if kind == writeInsert {
			s.rows = p.rows()
		} else {
			s.keys = p.strs()
		}
		if err := p.End(); err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return secs, nil
}

// commitHeader is all the broker reads of a MsgCommit payload; sections is
// the rest of it, passed through unparsed.
func commitHeader(payload []byte) (token, txnID string, writes int, sections []byte, err error) {
	r := rd{value.NewReader(payload)}
	token, txnID, writes = r.Str(), r.Str(), int(r.Uvarint())
	if r.Err() != nil {
		return "", "", 0, nil, fmt.Errorf("soe: decode %s: %w", MsgCommit, r.Err())
	}
	return token, txnID, writes, r.Rest(), nil
}

// --- one encoding per message kind -----------------------------------------

func (m ExecReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = appendStr(dst, m.SQL)
	dst = binary.AppendUvarint(dst, uint64(len(m.Params)))
	for _, v := range m.Params {
		dst = value.AppendBinary(dst, v)
	}
	dst = appendStr(dst, m.Table)
	dst = appendStr(dst, m.Table2)
	// nil (unscoped) and empty (scoped to nothing) are different requests:
	// 0 is nil, n+1 is n partitions.
	if m.Parts == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(m.Parts))+1)
		for _, p := range m.Parts {
			dst = binary.AppendUvarint(dst, uint64(p))
		}
	}
	return appendBool(dst, m.Partial)
}

// newString is a string of its own for every text a decoder reads.
func newString(b []byte) string { return string(b) }

func (m *ExecReq) readWire(b []byte) error { return m.readWireText(b, newString, newString) }

// readWireText is readWire with the statement's text made from its bytes
// by sql and the token and table names by name: a node hands it its
// engine's SQLText, so a text the engine holds a parse of is not copied,
// and a lookup of the words it knows, so a task it can serve makes no
// string of its own. The parameters and partitions are read into the
// memory of m's, which a node keeps from task to task.
func (m *ExecReq) readWireText(b []byte, sql, name func([]byte) string) error {
	r := rd{value.NewReader(b)}
	m.Token = name(r.Take(r.Uvarint()))
	m.SQL = sql(r.Take(r.Uvarint()))
	n := r.Count(1)
	m.Params = slices.Grow(m.Params[:0], n)
	for ; n > 0; n-- {
		m.Params = append(m.Params, r.Value())
	}
	m.Table, m.Table2 = name(r.Take(r.Uvarint())), name(r.Take(r.Uvarint()))
	parts := m.Parts[:0]
	m.Parts = nil // unscoped
	if n := r.Uvarint(); n > 0 {
		if n-1 > uint64(len(r.Rest())) {
			return errWireParts
		}
		if m.Parts = slices.Grow(parts, int(n-1)); m.Parts == nil {
			m.Parts = []int{} // scoped to nothing, which is not unscoped
		}
		for ; n > 1; n-- {
			m.Parts = append(m.Parts, int(r.Uvarint()))
		}
	}
	m.Partial = r.Byte() != 0
	return r.End()
}

func (m ExecResp) appendWire(dst []byte) []byte {
	dst = appendStrs(dst, m.Cols)
	dst = appendRows(dst, m.Rows)
	dst = appendStr(dst, m.State)
	dst = binary.AppendUvarint(dst, uint64(m.RowsScanned))
	dst = binary.AppendUvarint(dst, uint64(m.Morsels))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Completeness))
	return appendStr(dst, m.Err)
}

func (m *ExecResp) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Cols, m.Rows, m.State = r.strs(), r.rows(), nil
	if st := r.Take(r.Uvarint()); len(st) > 0 {
		m.State = st
	}
	m.RowsScanned, m.Morsels = int(r.Uvarint()), int(r.Uvarint())
	m.Completeness = r.Float64()
	m.Err = r.Str()
	return r.End()
}

// execAnswer is a node task's ExecResp encoded as its statement runs: a
// sqlexec.RowSink that writes the columns when it is shown the header and
// each batch's rows from their cells as they come, with the fold state of
// a partial plan that aggregates appended in place (state) — all into the
// receive buffer the caller lent (buf). finish closes it with the node's
// scan counters. The bytes are ExecResp.appendWire's, so the reply costs
// neither an ExecResp nor a copy of its rows or state.
type execAnswer struct {
	buf   []byte
	names bool // the columns' names go out; a Partial task's are the coordinator's plan's
	at    int  // where the row count goes: the start of the gap the header leaves
	rows  int
}

// countGap is the room the header leaves for what is known only once the
// statement is done: the row count — or, when there are no rows, its one
// byte and the length of the fold state that follows.
const countGap = 1 + binary.MaxVarintLen64

var gap [countGap]byte

func (a *execAnswer) Header(cols []sqlexec.Column) error {
	if !a.names {
		cols = nil
	}
	a.buf = binary.AppendUvarint(a.buf, uint64(len(cols)))
	for _, c := range cols {
		a.buf = appendStr(a.buf, c.Name)
	}
	a.at = len(a.buf)
	a.buf = append(a.buf, gap[:]...)
	return nil
}

func (a *execAnswer) Batch(b *sqlexec.RowBatch) error {
	n, w := b.Len(), b.Width()
	for i := 0; i < n; i++ {
		a.buf = binary.AppendUvarint(a.buf, uint64(w))
		for c := 0; c < w; c++ {
			a.buf = value.AppendBinary(a.buf, b.At(i, c))
		}
	}
	a.rows += n
	return nil
}

// finish returns the whole reply of a statement that succeeded, and so
// showed the sink its header: the gap closed over the rows — or, a plan
// that aggregates showing none, over the fold state after it — and the
// counters after them.
func (a *execAnswer) finish(scanned, morsels int) []byte {
	body := a.buf[a.at+countGap:]
	var head [countGap]byte
	h := binary.PutUvarint(head[:], uint64(a.rows))
	if a.rows == 0 {
		h += binary.PutUvarint(head[h:], uint64(len(body))) // the fold state's length
	}
	copy(a.buf[a.at:], head[:h])
	a.buf = a.buf[:a.at+h+copy(a.buf[a.at+h:], body)]
	if a.rows > 0 {
		a.buf = append(a.buf, 0) // no fold state
	}
	a.buf = binary.AppendUvarint(a.buf, uint64(scanned))
	a.buf = binary.AppendUvarint(a.buf, uint64(morsels))
	a.buf = binary.LittleEndian.AppendUint64(a.buf, 0) // Completeness: the coordinator's
	return append(a.buf, 0)                            // no Err
}

func (m CreateTempReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = appendStr(dst, m.Name)
	dst = appendStrs(dst, m.Cols)
	dst = appendStr(dst, m.Kinds)
	return appendRows(dst, m.Rows)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func (m *CreateTempReq) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Token, m.Name, m.Cols = r.Str(), r.Str(), r.strs()
	if k := r.Take(r.Uvarint()); len(k) > 0 {
		m.Kinds = append([]uint8(nil), k...)
	}
	m.Rows = r.rows()
	return r.End()
}

func (m CommitReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = appendStr(dst, m.TxnID)
	dst = binary.AppendUvarint(dst, uint64(len(m.Writes)))
	return appendSections(dst, m.Writes)
}

func (m CommitResp) appendWire(dst []byte) []byte {
	return appendStr(binary.AppendUvarint(dst, m.Pos), m.Err)
}

func (m *CommitResp) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Pos, m.Err = r.Uvarint(), r.Str()
	return r.End()
}

func (m ApplyReq) appendWire(dst []byte) []byte {
	return appendEntries(appendStr(dst, m.Token), m.Entries)
}

func (m *ApplyReq) readWire(b []byte) error { return m.readWireText(b, newString) }

// readWireText is readWire with the token made from its bytes by name (as
// ExecReq's) and the entries read into the memory of m's.
func (m *ApplyReq) readWireText(b []byte, name func([]byte) string) error {
	r := rd{value.NewReader(b)}
	m.Token = name(r.Take(r.Uvarint()))
	m.Entries = r.entries(m.Entries)
	return r.End()
}

func (m PollReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = binary.AppendUvarint(dst, m.From)
	return binary.AppendUvarint(dst, uint64(m.Max))
}

func (m *PollReq) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Token, m.From, m.Max = r.Str(), r.Uvarint(), int(r.Uvarint())
	return r.End()
}

func (m PollResp) appendWire(dst []byte) []byte {
	dst = appendEntries(dst, m.Entries)
	dst = binary.AppendUvarint(dst, m.Next)
	dst = binary.AppendUvarint(dst, m.Tail)
	return appendStr(dst, m.Err)
}

func (m *PollResp) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Entries, m.Next, m.Tail, m.Err = r.entries(nil), r.Uvarint(), r.Uvarint(), r.Str()
	return r.End()
}

func (m SnapshotReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = appendStr(dst, m.Table)
	return binary.AppendUvarint(dst, uint64(m.Partition))
}

func (m *SnapshotReq) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Token, m.Table, m.Partition = r.Str(), r.Str(), int(r.Uvarint())
	return r.End()
}

func (m SnapshotResp) appendWire(dst []byte) []byte {
	dst = appendRows(dst, m.Rows)
	dst = binary.AppendUvarint(dst, m.NextPos)
	return appendStr(dst, m.Err)
}

func (m *SnapshotResp) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Rows, m.NextPos, m.Err = r.rows(), r.Uvarint(), r.Str()
	return r.End()
}

// decode reads a message body as T, naming the kind in the error.
func decode[T any, P wirePtr[T]](m netsim.Message) (T, error) {
	var out T
	if err := decodeErr(m.Kind, P(&out).readWire(m.Payload)); err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// decodeErr is a decoder's error with the message kind named: what a
// caller that decodes into its own value (m.readWire) returns.
func decodeErr(kind string, err error) error {
	if err != nil {
		return fmt.Errorf("soe: decode %s: %w", kind, err)
	}
	return nil
}
