package pgwire

import (
	"sort"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// sys.m_connections: the wire front end's live connection table, served
// through the engine's virtual-view provider so any SQL client can see
// who is connected, what they are running and their transaction state —
// the pgwire half of HANA's M_CONNECTIONS. Serve wires this up
// automatically for EngineBackend servers; other backends call
// RegisterMonitoring themselves.

// RegisterMonitoring publishes this server's connection table as
// sys.m_connections in the given view catalog. Each scan takes a
// consistent snapshot of the connection registry.
func (s *Server) RegisterMonitoring(sys *sqlexec.SysCatalog) {
	schema := columnstore.Schema{
		{Name: "pid", Kind: value.KindInt},
		{Name: "remote", Kind: value.KindString},
		{Name: "state", Kind: value.KindString},
		{Name: "txn_status", Kind: value.KindString},
		{Name: "statement", Kind: value.KindString},
		{Name: "statements", Kind: value.KindInt},
		{Name: "connected", Kind: value.KindTime},
	}
	sys.Register("sys.m_connections", schema, func() ([]value.Row, error) {
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for _, c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		sort.Slice(conns, func(i, j int) bool { return conns[i].pid < conns[j].pid })
		rows := make([]value.Row, 0, len(conns))
		for _, c := range conns {
			c.monMu.Lock()
			stmt, count, tx := c.monStmt, c.monCount, c.monTx
			c.monMu.Unlock()
			state := "idle"
			if stmt != "" {
				state = "active"
			}
			rows = append(rows, value.Row{
				value.Int(int64(c.pid)),
				value.String(c.nc.RemoteAddr().String()),
				value.String(state),
				value.String(txnStatusName(tx)),
				value.String(stmt),
				value.Int(count),
				value.Time(c.connected),
			})
		}
		return rows, nil
	})
}

func txnStatusName(b byte) string {
	switch b {
	case txnOpen:
		return "open"
	case txnFailed:
		return "failed"
	default:
		return "idle"
	}
}
