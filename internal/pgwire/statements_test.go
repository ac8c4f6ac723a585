package pgwire

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sqlexec"
)

// outcome is what one statement of a string answered: its rows, a cell
// each, its CommandComplete tag ("" for EmptyQueryResponse) or its
// SQLSTATE.
type outcome struct{ rows, tag, code string }

// statementCases are strings of statements whose reading once went wrong
// on the wire — a leading or lone comment, a trailing one, END, a view
// body on its own line — and the quoting and syntax errors a split on `;`
// has to get right. parts, when set, are the statements the extended
// protocol parses one by one; otherwise it parses sql whole. count is what
// `SELECT COUNT(*) FROM t` reads afterwards, over the rows 1, 2 and 3.
var statementCases = []struct {
	name  string
	sql   string
	parts []string
	want  []outcome
	count string
}{
	{"comment first", "-- note\nSELECT a FROM t ORDER BY a", nil,
		[]outcome{{rows: "1 2 3", tag: "SELECT 3"}}, "3"},
	{"only a comment", "-- only a comment", nil,
		[]outcome{{}}, "3"},
	{"trailing comment", "SELECT 1; -- trailing", nil,
		[]outcome{{rows: "1", tag: "SELECT 1"}}, "3"},
	{"END commits", "BEGIN; INSERT INTO t VALUES (4); END", []string{"BEGIN", "INSERT INTO t VALUES (4)", "END"},
		[]outcome{{tag: "BEGIN"}, {tag: "INSERT 0 1"}, {tag: "COMMIT"}}, "4"},
	{"view body on its own line", "CREATE VIEW v AS\nSELECT a FROM t WHERE a > 1; SELECT a FROM v ORDER BY a",
		[]string{"CREATE VIEW v AS\nSELECT a FROM t WHERE a > 1", "SELECT a FROM v ORDER BY a"},
		[]outcome{{tag: "CREATE VIEW"}, {rows: "2 3", tag: "SELECT 2"}}, "3"},
	{"semicolon in a string", "SELECT 'a;b'", nil,
		[]outcome{{rows: "a;b", tag: "SELECT 1"}}, "3"},
	{"semicolon in a quoted identifier", `SELECT "x;y" FROM (SELECT a AS "x;y" FROM t) s WHERE "x;y" = 2`, nil,
		[]outcome{{rows: "2", tag: "SELECT 1"}}, "3"},
	{"last statement does not parse", "INSERT INTO t VALUES (5); SELEC 1", nil,
		[]outcome{{code: CodeSyntaxError}}, "3"},
}

// TestWireStatementStrings: every case answers the same rows, tags and
// SQLSTATE through the simple protocol, the extended protocol and an
// embedded session, and leaves the same rows behind.
func TestWireStatementStrings(t *testing.T) {
	for _, c := range statementCases {
		paths := map[string]func(srv *Server, eng *sqlexec.Engine) []outcome{
			"simple": func(srv *Server, _ *sqlexec.Engine) []outcome {
				results, err := dialT(t, srv).Simple(c.sql)
				return wireOutcomes(results, err)
			},
			"extended": func(srv *Server, _ *sqlexec.Engine) []outcome {
				conn := dialT(t, srv)
				parts := c.parts
				if parts == nil {
					parts = []string{c.sql}
				}
				var out []outcome
				for _, part := range parts {
					res, err := conn.Query(part)
					if out = append(out, wireOutcomes([]*ClientResult{res}, err)...); err != nil {
						break
					}
				}
				return out
			},
			"embedded": func(_ *Server, eng *sqlexec.Engine) []outcome {
				return embeddedOutcomes(EngineBackend{eng}.NewSession(), c.sql)
			},
		}
		for path, run := range paths {
			srv, eng := startServer(t, Config{})
			eng.MustQuery(`CREATE TABLE t (a INT)`)
			eng.MustQuery(`INSERT INTO t VALUES (1), (2), (3)`)
			got := run(srv, eng)
			if g, w := renderOutcomes(got), renderOutcomes(c.want); g != w {
				t.Errorf("%s, %s protocol:\n got  %s\n want %s", c.name, path, g, w)
			}
			if n := eng.MustQuery(`SELECT COUNT(*) FROM t`).Rows[0][0].AsString(); n != c.count {
				t.Errorf("%s, %s protocol: %s rows afterwards, want %s", c.name, path, n, c.count)
			}
		}
	}
}

// wireOutcomes reads a client's results, and the error that ended them.
func wireOutcomes(results []*ClientResult, err error) []outcome {
	var out []outcome
	for _, r := range results {
		if r == nil {
			continue
		}
		var cells []string
		for i := range r.Rows {
			for j := range r.Rows[i] {
				cells = append(cells, r.Get(i, j))
			}
		}
		out = append(out, outcome{rows: strings.Join(cells, " "), tag: r.Tag})
	}
	if err != nil {
		var pe *PGError
		code := "not coded: " + err.Error()
		if errors.As(err, &pe) {
			code = pe.Code
		}
		out = append(out, outcome{code: code})
	}
	return out
}

// embeddedOutcomes runs a string of statements as the simple protocol
// does, on a session in process: parse it whole, run each statement, stop
// at an error.
func embeddedOutcomes(sess Session, sql string) []outcome {
	defer sess.Close()
	stmts, err := sess.PrepareAll(sql)
	if err != nil {
		return []outcome{{code: sqlstateFor(err)}}
	}
	if len(stmts) == 0 {
		return []outcome{{}}
	}
	var out []outcome
	for _, st := range stmts {
		var res sqlexec.Result
		if _, err := st.ExecTo(&res); err != nil {
			return append(out, outcome{code: sqlstateFor(err)})
		}
		var cells []string
		for _, row := range res.Rows {
			for _, v := range row {
				cells = append(cells, v.AsString())
			}
		}
		o := outcome{tag: string(st.AppendTag(nil, int64(len(res.Rows))))}
		switch {
		case st.ReturnsRows():
			o.rows = strings.Join(cells, " ")
		case len(res.Rows) == 1:
			o.tag = string(st.AppendTag(nil, res.Rows[0][0].AsInt())) // a DML count
		}
		out = append(out, o)
	}
	return out
}

func renderOutcomes(outs []outcome) string {
	var sb strings.Builder
	for _, o := range outs {
		sb.WriteString("[" + o.rows + " | " + o.tag + " | " + o.code + "]")
	}
	return sb.String()
}
