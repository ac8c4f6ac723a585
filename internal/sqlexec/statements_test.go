package sqlexec

import (
	"testing"
)

// FuzzSplitStatements: splitting a string of statements on its `;` tokens
// never panics, the statements are in-order, non-overlapping slices of the
// input that hold no `;` token, and each one lexes on its own to the
// tokens the split handed over.
func FuzzSplitStatements(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1; SELECT 2",
		"-- note\nSELECT 1",
		"-- only a comment",
		"SELECT 1; -- trailing",
		"BEGIN; INSERT INTO t VALUES (1); END",
		"CREATE VIEW v AS\nSELECT a FROM t; SELECT a FROM v",
		"SELECT 'a;b', \"x;y\" FROM t;;  ;",
		"SELECT 'it''s'; SELECT \"a\"\"b\"",
		"INSERT INTO t VALUES (5); SELEC 1",
		"SELECT $1;SELECT ?;",
		"\"unterminated; SELECT 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return
		}
		last := 0
		statements(toks, func(piece []token, from, to int) error {
			if from < last || to < from || to > len(src) {
				t.Fatalf("%q: statement at [%d, %d) after one ending at %d", src, from, to, last)
			}
			last = to
			again, err := lex(src[from:to])
			if err != nil {
				t.Fatalf("%q: statement %q does not lex: %v", src, src[from:to], err)
			}
			if len(again) != len(piece) {
				t.Fatalf("%q: statement %q lexes to %d tokens, the split gave %d", src, src[from:to], len(again), len(piece))
			}
			for i, tok := range piece[:len(piece)-1] {
				if tok.kind == tkOp && tok.text == ";" {
					t.Fatalf("%q: statement %q holds a `;` token", src, src[from:to])
				}
				if again[i].kind != tok.kind || again[i].text != tok.text || int(again[i].pos)+from != int(tok.pos) {
					t.Fatalf("%q: token %d of %q is %+v, the split gave %+v", src, i, src[from:to], again[i], tok)
				}
			}
			if piece[len(piece)-1].kind != tkEOF {
				t.Fatalf("%q: statement %q is not EOF-terminated", src, src[from:to])
			}
			return nil
		})
	})
}

// TestLexAllocs: lexing allocates the token slice and nothing else when the
// text holds no string literal, quoted or upper-case identifier — a
// keyword's token carries the keyword table's text, an operator's a slice
// of the source.
func TestLexAllocs(t *testing.T) {
	const sql = `select region, sum(amount) from orders group by region`
	if got := testing.AllocsPerRun(100, func() {
		if _, err := lex(sql); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("lexing %q allocates %v times, want 1", sql, got)
	}
}
