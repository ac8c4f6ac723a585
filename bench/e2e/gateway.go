package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/value"
)

// gateway is the single-node system three of the four workloads drive: a
// sqlexec engine behind a pgwire server on loopback, with one client
// connection per closed-loop client. It is wired the way cmd/soed wires
// its gateway: wire metrics on, engine registry off.
type gateway struct {
	eng   *sqlexec.Engine
	srv   *pgwire.Server
	obs   *stats.Registry // pgwire_* metrics
	conns []*pgwire.Conn
	// sess are in-process sessions, one per client, that a traced run
	// replays statements on.
	sess []*sqlexec.Session
}

func bootGateway(eng *sqlexec.Engine) (*gateway, error) {
	g := &gateway{eng: eng, obs: stats.NewRegistry("service=pgwire")}
	srv, err := pgwire.Serve(pgwire.EngineBackend{Engine: eng}, pgwire.Config{Addr: "127.0.0.1:0", Obs: g.obs})
	if err != nil {
		return nil, fmt.Errorf("pgwire serve: %w", err)
	}
	g.srv = srv
	return g, nil
}

// dial opens n client connections and prepares the given named
// statements on each.
func (g *gateway) dial(n int, prepared map[string]string) error {
	for i := 0; i < n; i++ {
		c, err := pgwire.Dial(pgwire.ClientConfig{Addr: g.srv.Addr().String(), User: "bench"})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		g.conns = append(g.conns, c)
		g.sess = append(g.sess, g.eng.NewSession())
		for name, sql := range prepared {
			if err := c.Prepare(name, sql); err != nil {
				return fmt.Errorf("prepare %s: %w", name, err)
			}
		}
	}
	return nil
}

// exec runs statements in-process that must not fail (DDL, seeding).
func (g *gateway) exec(sqls ...string) error {
	s := g.eng.NewSession()
	defer s.Close()
	for _, sql := range sqls {
		if _, err := s.Query(sql); err != nil {
			return fmt.Errorf("%.40s...: %w", sql, err)
		}
	}
	return nil
}

func (g *gateway) close() {
	for _, c := range g.conns {
		c.Close()
	}
	for _, s := range g.sess {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	g.srv.Shutdown(ctx)
}

// rowsEqual reports whether a wire result holds exactly the expected
// rows, in order, in text form.
func rowsEqual(got [][]*string, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if len(got[i]) != len(w) {
			return false
		}
		for j := range w {
			if got[i][j] == nil || *got[i][j] != w[j] {
				return false
			}
		}
	}
	return true
}

// readStats is what the replays of a traced run add up across statements.
type readStats struct{ stmts, rowsScanned, rowsOut int }

// replayRead makes, in-process and on the same statement, the calls the
// server made on behalf of a client round trip that has just returned,
// and records each as a child span: the session call under parent, and
// parse, fingerprint, plan and execute under the session. It returns how
// long the session call took.
func replayRead(tr *trace, parent int, eng *sqlexec.Engine, sess *sqlexec.Session, sql string, params []value.Value, acc *readStats) (time.Duration, error) {
	t0 := time.Now()
	res, err := sess.Query(sql, params...)
	if err != nil {
		return 0, err
	}
	session := time.Since(t0)
	sp := tr.replayed("sqlexec.session", parent, session)
	acc.stmts++
	acc.rowsScanned += res.Stats.RowsScanned
	acc.rowsOut += len(res.Rows)

	t0 = time.Now()
	st, _, err := sqlexec.ParseWithParams(sql)
	if err != nil {
		return 0, err
	}
	tr.replayed("sqlexec.parse", sp, time.Since(t0))

	t0 = time.Now()
	sqlexec.Fingerprint(sql)
	tr.replayed("sqlexec.fingerprint", sp, time.Since(t0))

	t0 = time.Now()
	ts := eng.Mgr.Now()
	pl := &sqlexec.Planner{Cat: eng.Cat, Reg: eng.Reg, Sys: eng.Sys, TS: ts, Prune: eng.Prune}
	plan, err := pl.BuildSelect(st.(*sqlexec.SelectStmt))
	if err != nil {
		return 0, err
	}
	tr.replayed("sqlexec.plan", sp, time.Since(t0))

	t0 = time.Now()
	if _, err := sqlexec.RunWorkers(plan, ts, params, eng.Reg, eng.Mode, eng.Workers); err != nil {
		return 0, err
	}
	tr.replayed("sqlexec.exec", sp, time.Since(t0))
	return session, nil
}
