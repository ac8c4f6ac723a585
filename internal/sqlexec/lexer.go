package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkOp    // operators and punctuation
	tkParam // ? (sequential) or $N (explicit 1-based index)
)

type token struct {
	text string // keywords upper-cased, idents original case-folded to lower
	pos  int32  // of the token's first byte in the source
	kind tokenKind
}

// keywords maps every keyword to itself: the text of its token.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER
		LIMIT OFFSET AS JOIN INNER LEFT OUTER ON AND OR NOT IN BETWEEN IS NULL
		LIKE DISTINCT ASC DESC INSERT INTO VALUES UPDATE SET DELETE CREATE
		TABLE VIEW DROP IF EXISTS CASE WHEN THEN ELSE END TRUE FALSE MERGE
		DELTA OF WITH PARTITION RANGE`) {
		m[k] = k
	}
	return m
}()

// keyword returns the upper-case text of s when s, in any case, is a
// keyword. Every keyword is ASCII, and no other letter upper-cases to one
// inside a bare word.
func keyword(s string) (string, bool) {
	var up [len("PARTITION")]byte
	if len(s) > len(up) {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	k, ok := keywords[string(up[:len(s)])]
	return k, ok
}

type lexer struct {
	src  string
	pos  int
	toks []token
	// parens counts the parentheses open in the statement being lexed. A
	// statement holds at most one unparsed list (a VALUES row, a TABLE
	// call, a column list) around its subqueries' and its expressions'
	// parentheses, so past 3*maxNesting+1 open ones no parse of it could
	// pass the parser's bounds: it is refused before the rest is lexed.
	parens int
}

func lex(src string) ([]token, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("sql: a statement of %d bytes is too long", len(src))
	}
	// Sized once: a token is three characters or more of most statements,
	// blanks included, and a statement dense with punctuation grows it once.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+2)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '"' || isIdentStart(rune(c)):
			l.lexWord()
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '?':
			l.emit(tkParam, "?", l.pos)
			l.pos++
		case c == '$':
			// $N positional parameter (PostgreSQL style); 1-based.
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			if l.pos == start+1 {
				return nil, fmt.Errorf("sql: bare $ at %d", start)
			}
			l.emit(tkParam, l.src[start:l.pos], start)
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
	l.emit(tkEOF, "", len(l.src))
	return l.toks, nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func (l *lexer) emit(k tokenKind, s string, start int) {
	l.toks = append(l.toks, token{kind: k, text: s, pos: int32(start)})
}

func (l *lexer) lexWord() {
	start := l.pos
	if l.src[l.pos] == '"' { // quoted identifier; "" is a quote inside one
		for l.pos++; l.pos < len(l.src); l.pos++ {
			if l.src[l.pos] == '"' {
				if l.pos+1 == len(l.src) || l.src[l.pos+1] != '"' {
					break
				}
				l.pos++
			}
		}
		word := strings.ReplaceAll(l.src[start+1:l.pos], `""`, `"`)
		l.pos++ // closing quote
		l.emit(tkIdent, strings.ToLower(word), start)
		return
	}
	for l.pos < len(l.src) && (isIdentStart(rune(l.src[l.pos])) || l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
		l.pos++
	}
	word := l.src[start:l.pos]
	if k, ok := keyword(word); ok {
		l.emit(tkKeyword, k, start)
	} else {
		l.emit(tkIdent, strings.ToLower(word), start)
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if c == 'e' || c == 'E' {
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.emit(tkNumber, l.src[start:l.pos], start)
}

// lexString emits a string literal's text: a slice of the source when no
// quote inside it is escaped by doubling, else a copy with each pair read
// as one quote.
func (l *lexer) lexString() error {
	start := l.pos
	escaped := false
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
			escaped = true
			l.pos++
			continue
		}
		text := l.src[start+1 : l.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.pos++ // closing quote
		l.emit(tkString, text, start)
		return nil
	}
	return fmt.Errorf("sql: unterminated string literal at %d", l.pos)
}

func (l *lexer) lexOp() error {
	c := l.src[l.pos]
	if l.pos+1 < len(l.src) {
		switch d := l.src[l.pos+1]; {
		case d == '=' && (c == '<' || c == '>' || c == '!'), c == '<' && d == '>', c == '|' && d == '|':
			l.emit(tkOp, l.src[l.pos:l.pos+2], l.pos)
			l.pos += 2
			return nil
		}
	}
	switch c {
	case '(':
		if l.parens++; l.parens > 3*maxNesting+1 {
			return stateError{"54001", fmt.Errorf("sql: statement nested more than %d levels deep at %d", maxNesting, l.pos)}
		}
	case ')':
		l.parens = max(l.parens-1, 0)
	case ';':
		l.parens = 0
	}
	switch c {
	case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>', ';':
		l.emit(tkOp, l.src[l.pos:l.pos+1], l.pos)
		l.pos++
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
}
