package pgwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlexec"
)

// Native fuzz targets for the two frame readers: hostile bytes on the
// socket produce a coded error or a clean close, never a panic, and never
// an allocation sized by a number that was read before it was checked.

// fuzzBackend keeps what the fuzzer can make the engine do small, so that
// the allocation bound is a statement about the wire layer: only strings
// of statements that cannot touch a table — the catalog stays empty and has
// no sys views — and transaction control are prepared, on either protocol.
type fuzzBackend struct{ eng *sqlexec.Engine }

type fuzzSession struct{ Session }

func newFuzzBackend() fuzzBackend {
	eng := sqlexec.NewEngine()
	eng.Sys = sqlexec.NewSysCatalog()
	return fuzzBackend{eng}
}

func (b fuzzBackend) NewSession() Session { return fuzzSession{EngineBackend{b.eng}.NewSession()} }

func (s fuzzSession) PrepareAll(sql string) ([]Stmt, error) {
	sts, err := s.Session.PrepareAll(sql)
	for _, st := range sts {
		if tag := string(st.AppendTag(nil, 0)); !st.ReturnsRows() && tag != "BEGIN" && tag != "COMMIT" && tag != "ROLLBACK" {
			return nil, wireErr(CodeFeatureNotSupported, "not under fuzz")
		}
	}
	return sts, err
}

// recordedExchanges are client-to-server byte streams of real sessions,
// after the startup packet: the seeds.
func recordedExchanges() [][]byte {
	frames := func(msgs ...wireMsg) []byte {
		var out []byte
		for _, m := range msgs {
			out = append(out, m.typ)
			out = binary.BigEndian.AppendUint32(out, uint32(len(m.payload)+4))
			out = append(out, m.payload...)
		}
		return out
	}
	query := func(sql string) wireMsg { return wireMsg{msgQuery, []byte(sql + "\x00")} }
	term := wireMsg{msgTerminate, nil}
	return [][]byte{
		frames(query("SELECT 1"), term),
		frames(query("SELECT 1; SELECT fail; SELECT 3"), query(""), term),
		frames(parseMsg("", "SELECT 1 + $1"), bindMsg("", "", "41"), describeMsg('P', ""), executeMsg("", 0), syncMsg, term),
		frames(parseMsg("s", "SELECT $1, $2"), describeMsg('S', "s"), bindMsg("p", "s", "a", "nan"), executeMsg("p", 1), executeMsg("p", 0), closeMsg('P', "p"), closeMsg('S', "s"), syncMsg, term),
		frames(parseMsg("", "EXPLAIN SELECT 1"), bindMsg("", ""), describeMsg('P', ""), wireMsg{msgFlush, nil}, executeMsg("", 0), syncMsg),
		frames(parseMsg("", "SELECT FROM WHERE"), bindMsg("", ""), executeMsg("", 0), syncMsg, parseMsg("", " "), bindMsg("", ""), describeMsg('P', ""), executeMsg("", 0), syncMsg, term),
		frames(parseMsg("", "BEGIN"), bindMsg("", ""), executeMsg("", 0), syncMsg, query("SELECT fail"), query("ROLLBACK"), wireMsg{msgFuncCall, []byte{0, 0, 0, 1}}, syncMsg, term),
		frames(bindMsg("", "missing"), syncMsg, executeMsg("nope", 0), describeMsg('X', ""), closeMsg('X', ""), syncMsg, wireMsg{'?', nil}),
	}
}

// mutations adds truncated and bit-flipped copies of a seed.
func mutations(f *testing.F, seed []byte) {
	f.Add(seed)
	for _, cut := range []int{1, 4, 5, 6, len(seed) / 2, len(seed) - 1} {
		if cut > 0 && cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	for _, at := range []int{0, 1, 4, 5, 7, len(seed) / 3, len(seed) / 2} {
		if at < len(seed) {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
}

// halfPipe is the server's end of an in-memory connection whose client can
// close its sending half alone, which net.Pipe cannot: two io.Pipes, and
// an unused net.Pipe end for the address and deadline methods.
type halfPipe struct {
	net.Conn
	r *io.PipeReader
	w *io.PipeWriter
}

func (p halfPipe) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p halfPipe) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p halfPipe) Close() error {
	p.r.Close()
	return p.w.Close()
}

// FuzzServerFrames: arbitrary bytes after a valid startup, into a real
// conn.serve over an in-memory connection. The server must answer what it
// has read, find the end of the stream and close — a coded error or a
// clean close, never a panic, never a hang — and the exchange must not
// allocate more than a constant times the input plus a few maximal frames.
func FuzzServerFrames(f *testing.F) {
	for _, seed := range recordedExchanges() {
		mutations(f, seed)
	}
	f.Add([]byte{msgQuery, 0x7f, 0xff, 0xff, 0xff})       // a length past MaxMessage
	f.Add([]byte{msgQuery, 0, 3, 0xff, 0xfb, 'S', 'E'})   // a maximal frame that never arrives
	f.Add([]byte{msgBind, 0, 0, 0, 12, 0, 0, 0, 0, 0x7f}) // a parameter count with no parameters
	const maxMessage = 4 * frameKeep
	srv, err := Serve(newFuzzBackend(), Config{Addr: "127.0.0.1:0", MaxMessage: maxMessage})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	unused, _ := net.Pipe()
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		toServer, fromClient := io.Pipe()
		toClient, fromServer := io.Pipe()
		attach(srv, halfPipe{unused, toServer, fromServer})
		r := bufio.NewReader(toClient)
		handshake(t, fromClient, r)
		replies := make(chan []byte, 1)
		go func() {
			all, _ := io.ReadAll(r)
			replies <- all
		}()
		fromClient.Write(data) // an error means the server hung up first: fine
		fromClient.Close()
		var all []byte
		select {
		case all = <-replies:
		case <-time.After(20 * time.Second):
			t.Fatal("the connection did not end")
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+64*len(data)+2*maxMessage); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(data), got, limit)
		}
		// Whatever came back is whole frames, and every error among them is
		// coded.
		fr := newFrameReader(bytes.NewReader(all), DefaultMaxMessage)
		for {
			typ, payload, err := fr.readFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reply stream: %v", err)
			}
			if typ == msgErrorResponse {
				if e := decodeError(&msgReader{buf: payload}); len(e.Code) != 5 {
					t.Fatalf("uncoded error %+v", e)
				}
			}
		}
	})
}

// FuzzDecodeDataRows: arbitrary bytes as the server's side of the stream,
// into the client's frame reader and chunked row decoder. Whatever frames
// it yields decode exactly as the per-row reference decodes them, without
// a panic and within a constant times the input.
func FuzzDecodeDataRows(f *testing.F) {
	s1, s2, s3 := "1", "région", ""
	var seed []byte
	for i := 0; i < 6; i++ {
		seed = append(seed, dataRow([]*string{&s1, nil, &s2, &s3}[:1+i%4])...)
	}
	mutations(f, seed)
	mutations(f, append(dataRow(nil), dataRow([]*string{nil, nil})...))
	f.Add([]byte{msgDataRow, 0, 0, 0, 6, 0x7f, 0xff})                    // 32,767 cells, none there
	f.Add([]byte{msgDataRow, 0, 0, 0, 10, 0, 1, 0x7f, 0xff, 0xff, 0xff}) // a cell longer than the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, want, wellFormed := decodeBoth(data)
		runtime.ReadMemStats(&after)
		if wellFormed && !sameCells(got, want) {
			t.Fatalf("chunked decoder differs from the reference: %d vs %d rows", len(got), len(want))
		}
		// The reference's copies are in the measurement too.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+256*len(data)); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(data), got, limit)
		}
	})
}
