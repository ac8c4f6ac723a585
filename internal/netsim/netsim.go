// Package netsim provides the simulated cluster substrate the scale-out
// extension runs on: in-process nodes exchanging messages over links with
// configurable latency and bandwidth, plus the failure modes (crashed
// nodes, partitioned links) the SOE protocols must survive. The paper's
// 1000-node deployments are reproduced in-process; speedup and crossover
// experiments (E8, E9) are driven by the same communication/computation
// trade-off the latency and bandwidth model induces.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Message is one request or response payload. Trace is the caller's
// span context riding the envelope (W3C traceparent style): handlers
// that keep tracers parent their own spans under it, stitching a
// coordinator fan-out and its remote work into one trace.
//
// Recv is a request's receive buffer: memory the caller lends for the
// reply, which a handler may append its answer into (Recv[:0]) and hand
// back as the reply's Payload, grown or not. It is not part of the
// message on the wire (Size). Whatever Payload a handler answers with is
// the caller's once Call returns: the handler keeps no reference to it.
type Message struct {
	Kind    string
	Payload []byte
	Trace   stats.SpanContext
	Recv    []byte
}

// Size returns the modeled wire size (trace context adds the fixed two
// IDs a binary traceparent header would); a receive buffer is not sent.
func (m Message) Size() int {
	s := len(m.Kind) + len(m.Payload)
	if m.Trace.Valid() {
		s += 16
	}
	return s
}

// Handler processes an incoming request and returns the response.
type Handler func(from string, req Message) (Message, error)

// Errors surfaced by the network.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrCrashed     = errors.New("netsim: node crashed")
	ErrPartitioned = errors.New("netsim: link partitioned")
)

// Config models the physical links.
type Config struct {
	Latency   time.Duration // one-way per message
	Bandwidth int64         // bytes/second, 0 = infinite
}

// Network connects named endpoints.
type Network struct {
	mu        sync.RWMutex
	cfg       Config
	handlers  map[string]Handler
	crashed   map[string]bool
	blocked   map[string]bool // "a->b"
	msgs      atomic.Int64
	bytesSent atomic.Int64

	obs atomic.Pointer[instruments]
}

// instruments are a registry and the per-pair counters resolved in it,
// so that a call finds its pair's counters without building their label.
type instruments struct {
	reg   *stats.Registry
	mu    sync.Mutex
	pairs map[[2]string]pairCounters // {from, to}
}

type pairCounters struct{ msgs, bytes *stats.Counter }

// pair returns the counters of calls from one node to another.
func (in *instruments) pair(from, to string) pairCounters {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := [2]string{from, to}
	c, ok := in.pairs[k]
	if !ok {
		label := "pair=" + from + "->" + to
		c = pairCounters{in.reg.Counter("netsim_messages_total", label), in.reg.Counter("netsim_bytes_total", label)}
		in.pairs[k] = c
	}
	return c
}

// New returns a network with the given link model.
func New(cfg Config) *Network {
	return &Network{
		cfg:      cfg,
		handlers: map[string]Handler{},
		crashed:  map[string]bool{},
		blocked:  map[string]bool{},
	}
}

// Register adds a node with its request handler.
func (n *Network) Register(name string, h Handler) {
	n.mu.Lock()
	n.handlers[name] = h
	delete(n.crashed, name)
	n.mu.Unlock()
}

// Deregister removes a node.
func (n *Network) Deregister(name string) {
	n.mu.Lock()
	delete(n.handlers, name)
	n.mu.Unlock()
}

// Crash marks a node as failed: all traffic to it errors.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	n.crashed[name] = true
	n.mu.Unlock()
}

// Recover brings a crashed node back.
func (n *Network) Recover(name string) {
	n.mu.Lock()
	delete(n.crashed, name)
	n.mu.Unlock()
}

// Partition blocks traffic in both directions between a and b.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.blocked[a+"->"+b] = true
	n.blocked[b+"->"+a] = true
	n.mu.Unlock()
}

// Heal unblocks a partitioned pair.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	delete(n.blocked, a+"->"+b)
	delete(n.blocked, b+"->"+a)
	n.mu.Unlock()
}

// Call performs a synchronous RPC from one node to another, charging
// latency and bandwidth both ways.
func (n *Network) Call(from, to string, req Message) (Message, error) {
	n.mu.RLock()
	h, ok := n.handlers[to]
	crashed := n.crashed[to] || n.crashed[from]
	blocked := n.blocked[from+"->"+to]
	cfg := n.cfg
	n.mu.RUnlock()

	if !ok {
		return Message{}, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if crashed {
		return Message{}, fmt.Errorf("%w: %s", ErrCrashed, to)
	}
	if blocked {
		return Message{}, fmt.Errorf("%w: %s->%s", ErrPartitioned, from, to)
	}

	n.charge(cfg, req.Size())
	resp, err := h(from, req)
	if err != nil {
		return Message{}, err
	}
	n.charge(cfg, resp.Size())
	if in := n.obs.Load(); in != nil {
		c := in.pair(from, to)
		c.msgs.Add(2)
		c.bytes.Add(int64(req.Size() + resp.Size()))
	}
	return resp, nil
}

// Instrument attaches a metrics registry; every successful Call records
// message and byte counters labeled by the from->to service pair. Nil
// detaches.
func (n *Network) Instrument(reg *stats.Registry) {
	if reg == nil {
		n.obs.Store(nil)
		return
	}
	n.obs.Store(&instruments{reg: reg, pairs: map[[2]string]pairCounters{}})
}

func (n *Network) charge(cfg Config, size int) {
	n.msgs.Add(1)
	n.bytesSent.Add(int64(size))
	d := cfg.Latency
	if cfg.Bandwidth > 0 {
		d += time.Duration(int64(size) * int64(time.Second) / cfg.Bandwidth)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats returns total messages and bytes since creation.
func (n *Network) Stats() (msgs, bytes int64) {
	return n.msgs.Load(), n.bytesSent.Load()
}

// ResetStats zeroes the counters (between benchmark phases).
func (n *Network) ResetStats() {
	n.msgs.Store(0)
	n.bytesSent.Store(0)
}

// Nodes lists registered, non-crashed nodes.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for name := range n.handlers {
		if !n.crashed[name] {
			out = append(out, name)
		}
	}
	return out
}

// IsUnavailable reports whether err is a network-availability failure — the
// destination crashed, the link partitioned, or the node unregistered — as
// opposed to an application-level error returned by the remote handler.
// Availability failures are the retryable/failover class: the request never
// reached a healthy handler, so re-sending (possibly elsewhere) is safe.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrCrashed) || errors.Is(err, ErrPartitioned) ||
		errors.Is(err, ErrUnknownNode)
}

// Alive reports whether a node is registered and not crashed.
func (n *Network) Alive(name string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.handlers[name]
	return ok && !n.crashed[name]
}
