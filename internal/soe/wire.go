package soe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/netsim"
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
// Encoders append and cannot fail; the two messages of a node task,
// ExecReq and ExecResp, are sized once (wireSize) and grow their buffer to
// that size before they write it. Decoders fill a value the caller owns,
// and check every count and length against the bytes that remain before
// they allocate, so hostile input yields an error and allocations
// proportional to its size.

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

// uvarintSize is the length of x as a uvarint.
func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// strSize is the length of appendStr's encoding of s.
func strSize[T string | []byte](s T) int { return uvarintSize(uint64(len(s))) + len(s) }

func strsSize(ss []string) int {
	n := uvarintSize(uint64(len(ss)))
	for _, s := range ss {
		n += strSize(s)
	}
	return n
}

func rowsSize(rows []value.Row) int {
	n := uvarintSize(uint64(len(rows)))
	for _, row := range rows {
		n += uvarintSize(uint64(len(row)))
		for _, v := range row {
			n += value.BinarySize(v)
		}
	}
	return n
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

func (r *rd) entries() []LogEntry {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]LogEntry, n)
	for i := range out {
		out[i].Pos = r.Uvarint()
		out[i].Data = r.Take(r.Uvarint())
	}
	return out
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

// wireSize is the length of m's encoding.
func (m ExecReq) wireSize() int {
	n := strSize(m.Token) + strSize(m.SQL) + uvarintSize(uint64(len(m.Params))) + strSize(m.Table) + strSize(m.Table2) + 1 + 1
	for _, v := range m.Params {
		n += value.BinarySize(v)
	}
	if m.Parts != nil {
		n += uvarintSize(uint64(len(m.Parts))+1) - 1
		for _, p := range m.Parts {
			n += uvarintSize(uint64(p))
		}
	}
	return n
}

func (m ExecReq) appendWire(dst []byte) []byte {
	dst = slices.Grow(dst, m.wireSize())
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

func (m *ExecReq) readWire(b []byte) error {
	return m.readWireText(b, func(b []byte) string { return string(b) })
}

// readWireText is readWire with the statement's text made from its bytes by
// text: a node hands it its engine's SQLText, so a text the engine holds a
// parse of is not copied. The parameters are read into m.Params's memory.
func (m *ExecReq) readWireText(b []byte, text func([]byte) string) error {
	r := rd{value.NewReader(b)}
	m.Token = r.Str()
	m.SQL = text(r.Take(r.Uvarint()))
	n := r.Count(1)
	m.Params = slices.Grow(m.Params[:0], n)
	for ; n > 0; n-- {
		m.Params = append(m.Params, r.Value())
	}
	m.Table, m.Table2 = r.Str(), r.Str()
	m.Parts = nil
	if n := r.Uvarint(); n > 0 {
		if n-1 > uint64(len(r.Rest())) {
			return errWireParts
		}
		m.Parts = make([]int, n-1)
		for i := range m.Parts {
			m.Parts[i] = int(r.Uvarint())
		}
	}
	m.Partial = r.Byte() != 0
	return r.End()
}

// wireSize is the length of m's encoding.
func (m ExecResp) wireSize() int {
	return strsSize(m.Cols) + rowsSize(m.Rows) + strSize(m.State) +
		uvarintSize(uint64(m.RowsScanned)) + uvarintSize(uint64(m.Morsels)) + 8 + strSize(m.Err)
}

func (m ExecResp) appendWire(dst []byte) []byte {
	dst = slices.Grow(dst, m.wireSize())
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

func (m CreateTempReq) appendWire(dst []byte) []byte {
	dst = appendStr(dst, m.Token)
	dst = appendStr(dst, m.Name)
	dst = appendStrs(dst, m.Cols)
	dst = appendStr(dst, m.Kinds)
	dst = appendRows(dst, m.Rows)
	return appendBool(dst, m.Append)
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
	m.Append = r.Byte() != 0
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

func (m *ApplyReq) readWire(b []byte) error {
	r := rd{value.NewReader(b)}
	m.Token, m.Entries = r.Str(), r.entries()
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
	m.Entries, m.Next, m.Tail, m.Err = r.entries(), r.Uvarint(), r.Uvarint(), r.Str()
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
