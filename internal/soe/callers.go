package soe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// callers lends a service the goroutines its calls run on. A call with a
// deadline runs on a goroutine other than the one that waits for it — the
// simulated network cannot cancel a call, so the waiter walks away at the
// deadline and the call runs on — and a fan-out's calls run side by side.
// Starting a goroutine per call costs it, its closure and, the first time
// it sleeps out a link's latency, its runtime timer; a kept caller costs
// none of them again. The coordinator and the broker each keep their own,
// and Cluster.Shutdown ends them.
type callers struct {
	net *netsim.Network

	mu     sync.Mutex
	idle   []*caller
	closed bool
}

// maxKeptBuf caps the buffers a caller keeps between calls: a request or
// reply that grew one past 16 KiB — a broadcast pull, a batch insert's
// push — leaves it to the collector instead.
const maxKeptBuf = 16 << 10

// caller is one kept goroutine that makes one call at a time for whoever
// holds it, with what a call needs: the channel it answers on, the timer
// of its deadline, and two buffers — req, which the holder encodes its
// request into, and recv, which a lent call (lend) posts for the reply.
//
// Who owns what: between get and put the holder owns the caller, its
// buffers and the reply, whose payload it may read until put. A holder
// that walks away at the deadline (wait answers !kept) gives the caller
// to its goroutine, which keeps the request and the receive buffer the
// late call may still be using, and puts the caller back itself once that
// call returns: no later call sees its reply or shares its bytes.
type caller struct {
	p     *callers
	post  chan struct{} // closed to end the goroutine
	done  chan struct{} // closed by the goroutine as it ends
	reply chan error
	timer *time.Timer
	state atomic.Int32 // calling, answered or abandoned

	from, to string
	msg      netsim.Message // the call in flight
	d        time.Duration
	lent     bool           // the reply is in recv's memory: keep it (put)
	got      netsim.Message // the reply

	req, recv []byte
}

// The states of a call in flight: the waiter and the caller's goroutine
// each move it out of calling once, and whichever comes second yields.
const (
	calling int32 = iota
	answered
	abandoned
)

// get returns an idle caller, or a new one with its goroutine started.
func (p *callers) get() *caller {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		cl := p.idle[n-1]
		p.idle[n-1], p.idle = nil, p.idle[:n-1]
		p.mu.Unlock()
		return cl
	}
	p.mu.Unlock()
	cl := &caller{p: p, post: make(chan struct{}, 1), done: make(chan struct{}), reply: make(chan error, 1), timer: time.NewTimer(time.Hour)}
	cl.timer.Stop()
	go cl.run()
	return cl
}

// put takes back a caller whose call has returned, keeping its buffers
// (up to maxKeptBuf each) and nothing of the call; after close it ends the
// caller instead.
func (p *callers) put(cl *caller) {
	if cl.lent && cap(cl.got.Payload) <= maxKeptBuf {
		cl.recv = cl.got.Payload[:0]
	}
	if cap(cl.req) > maxKeptBuf {
		cl.req = nil
	}
	if cap(cl.recv) > maxKeptBuf {
		cl.recv = nil
	}
	cl.msg, cl.got, cl.lent = netsim.Message{}, netsim.Message{}, false
	p.mu.Lock()
	if p.closed {
		close(cl.post)
	} else {
		p.idle = append(p.idle, cl)
	}
	p.mu.Unlock()
}

// close ends every idle caller, returning once their goroutines have, and
// every busy one — a call abandoned at its deadline and still running —
// when it is put back. Calls made afterwards still run, each on a caller
// that ends when it is put back.
func (p *callers) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, cl := range idle {
		close(cl.post)
		<-cl.done
	}
}

// run is the caller's goroutine: it makes each call posted to it and
// answers it, or — abandoned by its waiter — puts itself back.
func (cl *caller) run() {
	defer close(cl.done)
	for range cl.post {
		msg, err := cl.p.net.Call(cl.from, cl.to, cl.msg)
		cl.got = msg
		if cl.state.CompareAndSwap(calling, answered) {
			cl.reply <- err
			continue
		}
		cl.p.put(cl)
	}
}

// start posts msg from one node to another, with a deadline d (none when
// d <= 0).
func (cl *caller) start(from, to string, msg netsim.Message, d time.Duration) {
	cl.from, cl.to, cl.msg, cl.d = from, to, msg, d
	cl.state.Store(calling)
	if d > 0 {
		cl.timer.Reset(d)
	}
	cl.post <- struct{}{}
}

// lend is start with cl.recv lent for the reply, which put keeps as the
// next call's receive buffer. The request is the holder's to keep intact
// until the call returns: typically its encoding into cl.req.
func (cl *caller) lend(from, to string, msg netsim.Message, d time.Duration) {
	msg.Recv = cl.recv
	cl.lent = true
	cl.start(from, to, msg, d)
}

// wait returns the call's reply, or errTaskTimeout at its deadline. kept
// says the holder still holds cl, as it does unless the deadline passed.
func (cl *caller) wait() (reply netsim.Message, kept bool, err error) {
	if cl.d <= 0 {
		err = <-cl.reply
		return cl.got, true, err
	}
	select {
	case err = <-cl.reply:
		if !cl.timer.Stop() {
			<-cl.timer.C // it fired as the reply came: the next Reset must find it empty
		}
	case <-cl.timer.C:
		// Read before the caller is given up: its goroutine may lend it
		// to another holder as soon as it is.
		from, to, kind, d := cl.from, cl.to, cl.msg.Kind, cl.d
		if cl.state.CompareAndSwap(calling, abandoned) {
			return netsim.Message{}, false, fmt.Errorf("%w: %s->%s %s after %v", errTaskTimeout, from, to, kind, d)
		}
		err = <-cl.reply // answered as the deadline passed: the reply is on its way
	}
	return cl.got, true, err
}

// exchange is one attempt of an RPC: an already encoded request — a retry
// loop encodes once and sends the same bytes on every attempt — with a
// span context riding the message envelope, so the remote handler can
// parent its own spans into the caller's trace (one TraceID covers
// coordinator, nodes, broker and shared log; a zero context degrades to an
// untraced call), and a per-attempt deadline, d. It returns the reply
// undecoded, and the caller decodes it into a value of its own: the reply
// is fresh, no buffer of p's. The simulated network has no cancellation: a
// timed-out call may still complete on the server, which is why retried
// requests must be idempotent (commit TxnIDs, read-only execs). d <= 0
// disables the deadline, and the call runs on the calling goroutine.
func (p *callers) exchange(from, to string, req netsim.Message, d time.Duration) (netsim.Message, error) {
	if d <= 0 {
		return p.net.Call(from, to, req)
	}
	cl := p.get()
	cl.start(from, to, req, d)
	msg, kept, err := cl.wait()
	if kept {
		p.put(cl)
	}
	return msg, err
}

// freeList is a stack of values to reuse. Unlike a sync.Pool it keeps what
// it is given across collections and under the race detector, so what a
// call allocates does not depend on when the collector last ran.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns a value put before, or nil.
func (l *freeList[T]) get() (x *T) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
	}
	l.mu.Unlock()
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
