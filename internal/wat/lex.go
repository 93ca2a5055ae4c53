// Package wat assembles a practical subset of the WebAssembly text format
// into binary modules (via the wasm package data model). It supports the
// constructs needed by this repository's workloads and tests: named
// functions/locals/globals/types/labels, flat and folded instruction forms,
// inline exports, imports, memories with data segments, tables with element
// segments, and start functions.
package wat

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokLParen tokenKind = iota
	tokRParen
	tokAtom   // keyword, number, or $identifier
	tokString // quoted string (escapes already processed)
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("wat: line %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

// next returns the next token, skipping whitespace and comments.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance(1)
		case c == ';' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ';':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ';':
			// Block comment, nestable.
			depth := 0
			for l.pos < len(l.src) {
				if l.pos+1 < len(l.src) && l.src[l.pos] == '(' && l.src[l.pos+1] == ';' {
					depth++
					l.advance(2)
				} else if l.pos+1 < len(l.src) && l.src[l.pos] == ';' && l.src[l.pos+1] == ')' {
					depth--
					l.advance(2)
					if depth == 0 {
						break
					}
				} else {
					l.advance(1)
				}
			}
			if depth != 0 {
				return token{}, l.errf("unterminated block comment")
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

scan:
	startLine, startCol := l.line, l.col
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.advance(1)
		return token{kind: tokLParen, text: "(", line: startLine, col: startCol}, nil
	case c == ')':
		l.advance(1)
		return token{kind: tokRParen, text: ")", line: startLine, col: startCol}, nil
	case c == '"':
		return l.scanString(startLine, startCol)
	case c == ';':
		// Not a comment opener, and a delimiter, so no atom starts here.
		return token{}, l.errf("unexpected %q", c)
	default:
		start := l.pos
		for l.pos < len(l.src) && !isDelim(l.src[l.pos]) {
			l.advance(1)
		}
		return token{kind: tokAtom, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
	}
}

func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '(', ')', '"', ';':
		return true
	}
	return false
}

func (l *lexer) scanString(startLine, startCol int) (token, error) {
	l.advance(1) // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.advance(1)
			return token{kind: tokString, text: sb.String(), line: startLine, col: startCol}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			e := l.src[l.pos+1]
			switch e {
			case 'n':
				sb.WriteByte('\n')
				l.advance(2)
			case 't':
				sb.WriteByte('\t')
				l.advance(2)
			case 'r':
				sb.WriteByte('\r')
				l.advance(2)
			case '\\', '"', '\'':
				sb.WriteByte(e)
				l.advance(2)
			default:
				// Two-digit hex escape.
				if l.pos+2 >= len(l.src) {
					return token{}, l.errf("truncated hex escape")
				}
				hi, ok1 := hexVal(l.src[l.pos+1])
				lo, ok2 := hexVal(l.src[l.pos+2])
				if !ok1 || !ok2 {
					return token{}, l.errf("invalid escape \\%c", e)
				}
				sb.WriteByte(hi<<4 | lo)
				l.advance(3)
			}
		default:
			sb.WriteByte(c)
			l.advance(1)
		}
	}
	return token{}, l.errf("unterminated string")
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// sexpr is a parsed s-expression node: either an atom/string leaf or a list.
type sexpr struct {
	atom   string
	str    string
	isStr  bool
	isList bool
	items  []*sexpr
	line   int
	col    int
}

func (s *sexpr) head() string {
	if s.isList && len(s.items) > 0 && !s.items[0].isList {
		return s.items[0].atom
	}
	return ""
}

// arg returns item i, or an empty atom at s's position when s has none, so
// a missing operand fails to parse instead of indexing out of range.
func (s *sexpr) arg(i int) *sexpr {
	if i < len(s.items) {
		return s.items[i]
	}
	return &sexpr{line: s.line, col: s.col}
}

// parseAll parses the whole source into top-level s-expressions.
func parseAll(src string) ([]*sexpr, error) {
	l := newLexer(src)
	var stack [][]*sexpr
	var cur []*sexpr
	var lines []int
	var cols []int
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		switch tok.kind {
		case tokEOF:
			if len(stack) != 0 {
				return nil, fmt.Errorf("wat: unclosed parenthesis")
			}
			return cur, nil
		case tokLParen:
			stack = append(stack, cur)
			lines = append(lines, tok.line)
			cols = append(cols, tok.col)
			cur = nil
		case tokRParen:
			if len(stack) == 0 {
				return nil, fmt.Errorf("wat: line %d:%d: unexpected )", tok.line, tok.col)
			}
			node := &sexpr{isList: true, items: cur, line: lines[len(lines)-1], col: cols[len(cols)-1]}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lines = lines[:len(lines)-1]
			cols = cols[:len(cols)-1]
			cur = append(cur, node)
		case tokAtom:
			cur = append(cur, &sexpr{atom: tok.text, line: tok.line, col: tok.col})
		case tokString:
			cur = append(cur, &sexpr{str: tok.text, isStr: true, line: tok.line, col: tok.col})
		}
	}
}
