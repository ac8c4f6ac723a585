package sqlexec

import "strings"

// This file implements statement fingerprinting: the normalization that
// folds every execution of "the same query shape" onto one stable ID, the
// way pg_stat_statements (and HANA's M_SQL_PLAN_CACHE) key their workload
// statistics. Literals and parameters are abstracted away, IN-lists of
// literals collapse regardless of arity, and whitespace/keyword case are
// canonicalized — so `select * from t where id = 7` and
// `SELECT * FROM t WHERE id IN ($1,$2,$3)` each map to one fingerprint no
// matter how the client spells them.

// Fingerprint returns the stable fingerprint ID (16 hex digits, FNV-64a
// of the normalized text) and the normalized text itself.
func Fingerprint(sql string) (id, norm string) {
	norm = NormalizeSQL(sql)
	return fingerprintID(norm), norm
}

// fingerprintID is the FNV-64a hash of norm in 16 lower-case hex digits.
func fingerprintID(norm string) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(norm); i++ {
		h ^= uint64(norm[i])
		h *= prime64
	}
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(hex[:])
}

// NormalizeSQL canonicalizes a statement for fingerprinting: keywords
// uppercase, identifiers lowercase, every literal and parameter replaced
// by `?`, IN-lists of literals collapsed to `(...)`, and spacing reduced
// to a single canonical form. Statements the lexer rejects fall back to
// collapsing the lexer's blanks (collapseBlanks), so every string — even
// unparseable garbage — gets a deterministic fingerprint. A normal form
// is its own normal form.
func NormalizeSQL(sql string) string {
	toks, err := lex(sql)
	if err != nil {
		return collapseBlanks(sql)
	}
	return normalizeTokens(trimTrailingSemi(toks))
}

// collapseBlanks drops the leading and trailing blanks of sql and turns
// each run of blanks inside it into one: a newline when the run holds one,
// since a newline ends a comment, else a space. Blanks are what the lexer
// skips and nothing else, so the result lexes — or fails to — as sql did.
func collapseBlanks(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	run, nl := false, false
	for i := 0; i < len(sql); i++ {
		switch c := sql[i]; c {
		case ' ', '\t', '\r', '\n':
			run, nl = true, nl || c == '\n'
		default:
			switch {
			case !run || sb.Len() == 0:
			case nl:
				sb.WriteByte('\n')
			default:
				sb.WriteByte(' ')
			}
			run, nl = false, false
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// trimTrailingSemi drops, in place, the `;` tokens that end a statement
// before EOF: all of them, or ";;" would normalize to ";" and that to "".
func trimTrailingSemi(toks []token) []token {
	n := len(toks)
	for n >= 2 && toks[n-2].kind == tkOp && toks[n-2].text == ";" {
		toks[n-2] = toks[n-1]
		n--
	}
	return toks[:n]
}

// normalizeTokens is NormalizeSQL over an already-lexed statement, so a
// prepared statement is fingerprinted by the lexer pass that parses it. The
// text is measured first and then written, into one allocation of its
// exact length: sys.m_statements keeps it.
func normalizeTokens(toks []token) string {
	n := 0
	normalPieces(toks, func(s string, space bool) {
		if n += len(s); space {
			n++
		}
	})
	var sb strings.Builder
	sb.Grow(n)
	normalPieces(toks, func(s string, space bool) {
		if space {
			sb.WriteByte(' ')
		}
		sb.WriteString(s)
	})
	return sb.String()
}

// normalPieces hands f the pieces of a statement's normalized text in
// order, each with whether a space goes before it.
func normalPieces(toks []token, f func(s string, space bool)) {
	prev, first := "", true
	emit := func(s string) {
		f(s, !first && spaceBetween(prev, s))
		prev, first = s, false
	}
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.kind {
		case tkEOF:
		case tkNumber, tkString, tkParam:
			emit("?")
		case tkIdent:
			emit(identText(t.text)) // quoted when bare it would lex as another token
		case tkKeyword:
			emit(t.text)
			if t.text == "IN" {
				if j, ok := literalListEnd(toks, i+1); ok {
					emit("(...)")
					i = j
				}
			}
		default:
			emit(t.text)
		}
	}
}

// literalListEnd reports whether toks[start] opens a parenthesized list
// made only of literals/parameters (commas and unary minus allowed) and
// returns the index of the closing paren.
func literalListEnd(toks []token, start int) (int, bool) {
	if start >= len(toks) || toks[start].kind != tkOp || toks[start].text != "(" {
		return 0, false
	}
	for j := start + 1; j < len(toks); j++ {
		t := toks[j]
		switch {
		case t.kind == tkOp && t.text == ")":
			if j == start+1 {
				return 0, false // IN () — not a literal list
			}
			return j, true
		case t.kind == tkNumber || t.kind == tkString || t.kind == tkParam:
		case t.kind == tkOp && (t.text == "," || t.text == "-"):
		default:
			return 0, false
		}
	}
	return 0, false
}

// spaceBetween decides canonical spacing: none around '.', none after
// '(' and none before ',' or ')'.
func spaceBetween(prev, cur string) bool {
	switch cur {
	case ",", ")", ".":
		return false
	}
	switch prev {
	case "(", ".":
		return false
	}
	return true
}
