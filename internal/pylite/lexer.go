// Package pylite is the Python interpreter the paper's Python container
// baseline runs: an indentation-aware lexer, a one-pass compiler to
// bytecode, and a stack VM that counts the instructions it retires and the
// list bytes it allocates. Those two counts feed the simulated process
// footprint model (core.PythonProfile); CPython's own footprint is
// calibrated there, not here.
//
// The language is the one the service app (workloads.MinimalServicePy)
// needs: assignment, expression statements, while and pass; int, string,
// True/False/None and list literals; + - * / % and the six comparisons on
// ints; print(...) and list.append(x). Anything else is a syntax error or a
// runtime error.
package pylite

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIndent
	tokDedent
	tokName
	tokInt
	tokString
	tokOp      // operators and punctuation
	tokKeyword // while, pass, True, False, None
)

var keywords = map[string]bool{"while": true, "pass": true, "True": true, "False": true, "None": true}

type token struct {
	kind      tokKind
	text      string
	line, col int
}

// SyntaxError reports a lexing or parsing failure with position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pylite: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func synErr(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes source, inserting INDENT/DEDENT/NEWLINE tokens per Python's
// layout rules. Indentation is spaces only; a line break inside brackets
// continues the line.
func lex(src string) ([]token, error) {
	var toks []token
	indents := []int{0}
	lines := strings.Split(src, "\n")
	depth := 0 // open brackets
	for li, line := range lines {
		lineNo := li + 1
		if depth == 0 {
			trimmed := strings.TrimLeft(line, " ")
			if trimmed == "" || trimmed[0] == '#' {
				continue
			}
			indent := len(line) - len(trimmed)
			if indent > indents[len(indents)-1] {
				indents = append(indents, indent)
				toks = append(toks, token{kind: tokIndent, line: lineNo})
			}
			for indent < indents[len(indents)-1] {
				indents = indents[:len(indents)-1]
				toks = append(toks, token{kind: tokDedent, line: lineNo})
			}
			if indent != indents[len(indents)-1] {
				return nil, synErr(lineNo, 1, "inconsistent indentation")
			}
		}
		for col := 0; col < len(line); {
			c, start := line[col], col
			kind := tokOp
			switch {
			case c == ' ':
				col++
				continue
			case c == '#':
				col = len(line)
				continue
			case isDigit(c):
				for col < len(line) && isDigit(line[col]) {
					col++
				}
				kind = tokInt
			case isNameChar(c):
				for col < len(line) && (isNameChar(line[col]) || isDigit(line[col])) {
					col++
				}
				kind = tokName
				if keywords[line[start:col]] {
					kind = tokKeyword
				}
			case c == '"' || c == '\'':
				end := strings.IndexByte(line[col+1:], c)
				if end < 0 {
					return nil, synErr(lineNo, col+1, "unterminated string")
				}
				text := line[col+1 : col+1+end]
				if strings.IndexByte(text, '\\') >= 0 {
					return nil, synErr(lineNo, col+1, "escape sequences are not supported")
				}
				toks = append(toks, token{tokString, text, lineNo, col + 1})
				col += end + 2
				continue
			case col+1 < len(line) && line[col+1] == '=' && strings.IndexByte("=!<>", c) >= 0:
				col += 2
			case strings.IndexByte("+-*/%<>=(),[]:.", c) >= 0:
				col++
				switch c {
				case '(', '[':
					depth++
				case ')', ']':
					depth = max(depth-1, 0)
				}
			default:
				return nil, synErr(lineNo, col+1, "unexpected character %q", string(c))
			}
			toks = append(toks, token{kind, line[start:col], lineNo, start + 1})
		}
		if depth == 0 {
			toks = append(toks, token{kind: tokNewline, line: lineNo})
		}
	}
	for range indents[1:] {
		toks = append(toks, token{kind: tokDedent, line: len(lines)})
	}
	return append(toks, token{kind: tokEOF, line: len(lines)}), nil
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isNameChar(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
