package pgwire

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Config shapes a wire server. Zero values take the documented defaults.
type Config struct {
	Addr string // listen address, e.g. ":5432" or "127.0.0.1:0"

	// MaxConns bounds concurrently open connections; startups beyond it
	// are refused with SQLSTATE 53300 (default 2000).
	MaxConns int
	// Workers bounds statements executing at once across all connections
	// — the admission-control slot pool (default 4×GOMAXPROCS).
	Workers int
	// QueueDepth bounds statements waiting for a slot; beyond it the
	// statement is rejected with SQLSTATE 53400 instead of queueing
	// unboundedly (default 4×Workers).
	QueueDepth int
	// MaxStmts bounds named prepared statements plus portals per
	// connection (default 256).
	MaxStmts int
	// MaxMessage bounds one protocol frame (default 16 MiB).
	MaxMessage int
	// StartupTimeout bounds the handshake read (default 10s).
	StartupTimeout time.Duration

	// Obs receives the pgwire_* metrics; nil disables instrumentation
	// (all stats types are nil-safe). Tracer is reserved for future
	// wire-level spans; statement spans come from the engine itself.
	Obs    *stats.Registry
	Tracer *stats.Tracer

	// ServerVersion is reported via ParameterStatus (default "13.0-soe").
	ServerVersion string
}

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 2000
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 256
	}
	if c.MaxMessage <= 0 {
		c.MaxMessage = DefaultMaxMessage
	}
	if c.StartupTimeout <= 0 {
		c.StartupTimeout = 10 * time.Second
	}
	if c.ServerVersion == "" {
		c.ServerVersion = "13.0-soe"
	}
}

// Server is a PostgreSQL v3 wire front end over a Backend.
type Server struct {
	cfg     Config
	backend Backend
	ln      net.Listener

	slots    chan struct{} // admission worker slots
	queued   atomic.Int64  // statements waiting for a slot
	draining atomic.Bool
	done     chan struct{} // closed on Shutdown/Close: unblocks queued waiters

	mu     sync.Mutex
	conns  map[uint32]*conn // backend pid -> connection (cancel + drain)
	nextID uint32
	wg     sync.WaitGroup

	obs *stats.Registry
	// Per-statement metric handles, resolved once in Serve: a registry
	// lookup builds a sorted label slice and a joined key every time.
	hSimple, hExtended *stats.Histogram // pgwire_query_ms{proto=…}
	cOK, cErr          *stats.Counter   // pgwire_queries_total{result=…}
}

// Serve listens on cfg.Addr and accepts connections until Shutdown or
// Close. It returns once the listener is live, so callers can read Addr()
// immediately (":0" resolves to the bound port).
func Serve(backend Backend, cfg Config) (*Server, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("pgwire: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:     cfg,
		backend: backend,
		ln:      ln,
		slots:   make(chan struct{}, cfg.Workers),
		done:    make(chan struct{}),
		conns:   map[uint32]*conn{},
		obs:     cfg.Obs,

		hSimple:   cfg.Obs.Histogram("pgwire_query_ms", "proto=simple"),
		hExtended: cfg.Obs.Histogram("pgwire_query_ms", "proto=extended"),
		cOK:       cfg.Obs.Counter("pgwire_queries_total", "result=ok"),
		cErr:      cfg.Obs.Counter("pgwire_queries_total", "result=error"),
	}
	// An engine-backed server observes itself: its connection table joins
	// the engine's sys schema, queryable over the very protocol it serves.
	if eb, ok := backend.(EngineBackend); ok {
		s.RegisterMonitoring(eb.Engine.SysViews())
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Draining reports whether the server is in graceful shutdown — the
// /healthz readiness signal.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		n := len(s.conns)
		s.nextID++
		pid := s.nextID
		s.mu.Unlock()
		if s.draining.Load() {
			go refuseStartup(nc, CodeCannotConnectNow, "server is draining")
			s.obs.Counter("pgwire_connections_rejected_total", "reason=draining").Inc()
			continue
		}
		if n >= s.cfg.MaxConns {
			go refuseStartup(nc, CodeTooManyConnections, "too many connections")
			s.obs.Counter("pgwire_connections_rejected_total", "reason=max_conns").Inc()
			continue
		}
		c := newConn(s, nc, pid, randSecret())
		s.mu.Lock()
		s.conns[pid] = c
		s.obs.Gauge("pgwire_connections_open").Set(float64(len(s.conns)))
		s.mu.Unlock()
		s.obs.Counter("pgwire_connections_total").Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.dropConn(pid)
		}()
	}
}

func (s *Server) dropConn(pid uint32) {
	s.mu.Lock()
	delete(s.conns, pid)
	s.obs.Gauge("pgwire_connections_open").Set(float64(len(s.conns)))
	s.mu.Unlock()
}

// cancel delivers a CancelRequest: flag the target connection so its next
// statement boundary fails with 57014. Secrets must match; a miss is
// silently ignored exactly like real Postgres.
func (s *Server) cancel(pid, secret uint32) {
	s.mu.Lock()
	c := s.conns[pid]
	s.mu.Unlock()
	if c != nil && c.secret == secret {
		c.canceled.Store(true)
		s.obs.Counter("pgwire_cancels_total").Inc()
	}
}

// errAdmission is returned when the wait queue is full.
var errAdmission = wireErr(CodeAdmissionRejected, "statement queue full, admission rejected")

// admit acquires a worker slot, waiting in the bounded queue. A full
// queue rejects immediately — overload is an error the client sees, not
// a hang — and shutdown unblocks waiters.
func (s *Server) admit() error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.obs.Counter("pgwire_admission_rejections_total").Inc()
		return errAdmission
	}
	s.obs.Gauge("pgwire_queue_depth").Set(float64(s.queued.Load()))
	defer func() {
		s.queued.Add(-1)
		s.obs.Gauge("pgwire_queue_depth").Set(float64(s.queued.Load()))
	}()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-s.done:
		return wireErr(CodeAdminShutdown, "server is shutting down")
	}
}

func (s *Server) release() { <-s.slots }

// Shutdown drains gracefully: new startups are refused, idle connections
// tell their client 57P01 and close, busy connections finish their
// in-flight statement (and what they have read of an extended-protocol
// batch) and then do the same. When ctx expires before the drain
// completes, remaining connections are force-closed — which is also what
// ends a statement streaming to a client that stopped reading.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("pgwire: already shut down")
	}
	s.obs.Gauge("pgwire_draining").Set(1)
	s.ln.Close()
	close(s.done)

	// Nudge idle connections: one blocked in a read with no request in
	// flight wakes up and retires itself, dropping zero responses.
	s.mu.Lock()
	for _, c := range s.conns {
		c.drainIfIdle()
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, c := range s.conns {
			c.forceClose()
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// Close shuts down immediately: listener and every connection.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}

// refuseStartup answers the handshake of a connection that will not be
// admitted: complete SSL negotiation if offered, then send a coded
// ErrorResponse and close. The client sees a reason, not a reset.
func refuseStartup(nc net.Conn, code, msg string) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	c := newConn(nil, nc, 0, 0)
	for {
		payload, err := c.in.readStartup()
		if err != nil {
			return
		}
		m := msgReader{buf: payload}
		switch m.int32() {
		case sslRequestCode, gssRequestCode:
			nc.Write([]byte{'N'})
			continue
		case cancelCode:
			return
		}
		c.sendError(code, msg)
		c.out.w.Flush()
		return
	}
}

func randSecret() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint32(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint32(b[:])
}
