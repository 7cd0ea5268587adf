// Package lexer tokenizes the P4 subset accepted by the P4BID frontend.
//
// The lexer is a conventional hand-written scanner. It understands //-line
// and /* block */ comments, decimal and hexadecimal integer literals, P4's
// width-prefixed literals (8w255 is split into the value with its width
// recorded in the literal spelling), and all the punctuation of the core
// grammar, including the angle brackets that do double duty as comparison
// operators and as the delimiters of security-annotated types <bit<8>, low>.
// Disambiguation of < is left to the parser, which has the grammatical
// context; the lexer always emits LT/GT/SHL/SHR/LEQ/GEQ greedily, and the
// parser splits a >> or >= that closes a type, handing the second half back
// through Push.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/token"
)

// Lexer scans an input buffer into tokens.
type Lexer struct {
	src  string
	file string
	off  int // byte offset of next rune
	line int
	col  int

	peeked []token.Token // pushback buffer used by the parser
}

// New returns a lexer over src; file is used in positions (may be empty).
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errorf builds a positioned lexical error.
func (l *Lexer) errorf(p token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

// at returns the byte at offset i, or 0 past the end of the input. Callers
// only compare it with bytes other than NUL, so a NUL in the input is never
// taken for the end: the end is off == len(src), and a NUL outside a
// comment is an illegal character.
func (l *Lexer) at(i int) byte {
	if i >= len(l.src) {
		return 0
	}
	return l.src[i]
}

// skipTo moves the scan to offset j, counting the lines and columns of the
// bytes it passes over.
func (l *Lexer) skipTo(j int) {
	seg := l.src[l.off:j]
	if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
		l.line += strings.Count(seg, "\n")
		l.col = len(seg) - nl
	} else {
		l.col += len(seg)
	}
	l.off = j
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpaceAndComments consumes whitespace and comments; it returns an error
// for an unterminated block comment.
func (l *Lexer) skipSpaceAndComments() error {
	for {
		off, line, col := l.off, l.line, l.col
	space:
		for ; off < len(l.src); off++ {
			switch l.src[off] {
			case ' ', '\t', '\r':
				col++
			case '\n':
				line++
				col = 1
			default:
				break space
			}
		}
		l.off, l.line, l.col = off, line, col
		if l.at(off) != '/' {
			return nil
		}
		switch l.at(off + 1) {
		case '/':
			j := off + 2
			for j < len(l.src) && l.src[j] != '\n' {
				j++
			}
			l.col += j - off
			l.off = j
		case '*':
			p := l.pos()
			j := off + 2
			for {
				if j >= len(l.src) {
					l.skipTo(j)
					return l.errorf(p, "unterminated block comment")
				}
				if l.src[j] == '*' && l.at(j+1) == '/' {
					break
				}
				j++
			}
			l.skipTo(j + 2)
		default:
			return nil
		}
	}
}

// Next returns the next token. After EOF it keeps returning EOF.
func (l *Lexer) Next() (token.Token, error) {
	var t token.Token
	err := l.Scan(&t)
	return t, err
}

// punct maps each byte that is a token on its own, whatever follows it, to
// the token's kind; every other byte maps to ILLEGAL.
var punct = [256]token.Kind{
	'(': token.LPAREN, ')': token.RPAREN, '{': token.LBRACE, '}': token.RBRACE,
	'[': token.LBRACKET, ']': token.RBRACKET, ',': token.COMMA, ';': token.SEMICOLON,
	':': token.COLON, '.': token.DOT, '@': token.AT, '+': token.PLUS, '-': token.MINUS,
	'*': token.STAR, '/': token.SLASH, '%': token.PERCENT, '^': token.CARET, '~': token.BITNOT,
}

// Scan scans the next token into *t, the caller's token, and returns the
// error Next would. After EOF it keeps scanning EOF.
func (l *Lexer) Scan(t *token.Token) error {
	if n := len(l.peeked); n > 0 {
		*t = l.peeked[n-1]
		l.peeked = l.peeked[:n-1]
		return nil
	}
	if err := l.skipSpaceAndComments(); err != nil {
		*t = token.Token{Kind: token.ILLEGAL, Pos: l.pos()}
		return err
	}
	t.Pos = l.pos()
	t.Lit = ""
	if l.off >= len(l.src) {
		t.Kind = token.EOF
		return nil
	}
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		j := l.off + 1
		for j < len(l.src) && isIdentCont(l.src[j]) {
			j++
		}
		t.Lit = l.src[l.off:j]
		t.Kind = token.LookupIdent(t.Lit)
		l.col += j - l.off
		l.off = j
		return nil
	case isDigit(c):
		return l.lexNumber(t)
	}
	// Every remaining token is one or two bytes on one line.
	l.off++
	l.col++
	if k := punct[c]; k != token.ILLEGAL {
		t.Kind = k
		return nil
	}
	two := func(second byte, k2, k1 token.Kind) token.Kind {
		if l.at(l.off) == second {
			l.off++
			l.col++
			return k2
		}
		return k1
	}
	switch c {
	case '&':
		t.Kind = two('&', token.AND, token.AMP)
	case '|':
		t.Kind = two('|', token.OR, token.PIPE)
	case '=':
		t.Kind = two('=', token.EQ, token.ASSIGN)
	case '!':
		t.Kind = two('=', token.NEQ, token.NOT)
	case '<':
		if l.at(l.off) == '<' {
			t.Kind = two('<', token.SHL, token.LT)
		} else {
			t.Kind = two('=', token.LEQ, token.LT)
		}
	case '>':
		if l.at(l.off) == '>' {
			t.Kind = two('>', token.SHR, token.GT)
		} else {
			t.Kind = two('=', token.GEQ, token.GT)
		}
	default:
		t.Kind, t.Lit = token.ILLEGAL, string(c)
		return l.errorf(t.Pos, "unexpected character %q", c)
	}
	return nil
}

// lexNumber scans decimal, hex (0x...), and width-prefixed (8w255, 4w0xF)
// literals into *t, whose Pos is set. Width-prefixed literals keep their
// full spelling in Lit; the parser decodes them.
func (l *Lexer) lexNumber(t *token.Token) error {
	start := l.off
	j := start
	for isDigit(l.at(j)) {
		j++
	}
	// finish consumes the literal up to j.
	finish := func() {
		l.col += j - start
		l.off = j
	}
	malformedHex := func() error {
		finish()
		t.Kind = token.ILLEGAL
		return l.errorf(t.Pos, "malformed hex literal")
	}
	// Width-prefixed literal: <width>w<value>.
	if l.at(j) == 'w' && isDigit(l.at(j+1)) {
		j++ // w
		if l.at(j) == '0' && (l.at(j+1) == 'x' || l.at(j+1) == 'X') {
			j += 2
			if !isHexDigit(l.at(j)) {
				return malformedHex()
			}
			for isHexDigit(l.at(j)) {
				j++
			}
		} else {
			for isDigit(l.at(j)) {
				j++
			}
		}
		finish()
		t.Kind, t.Lit = token.INT, l.src[start:j]
		return nil
	}
	// Hex literal.
	if j-start == 1 && l.src[start] == '0' && (l.at(j) == 'x' || l.at(j) == 'X') {
		j++
		if !isHexDigit(l.at(j)) {
			return malformedHex()
		}
		for isHexDigit(l.at(j)) {
			j++
		}
	}
	finish()
	t.Lit = l.src[start:j]
	if isIdentStart(l.at(j)) {
		t.Kind = token.ILLEGAL
		return l.errorf(t.Pos, "identifier character immediately after number %q", t.Lit)
	}
	t.Kind = token.INT
	return nil
}

// Push returns a token to the stream; the next call to Next yields it.
// The parser uses this for one-token splits such as turning SHR into GT GT
// when closing nested angle brackets of a type.
func (l *Lexer) Push(t token.Token) { l.peeked = append(l.peeked, t) }

// All scans the entire input, returning the tokens up to and including EOF.
// It is a convenience for tests and tooling.
func (l *Lexer) All() ([]token.Token, error) {
	var out []token.Token
	for {
		t, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, nil
		}
	}
}

// DecodeInt parses an integer literal spelling produced by the lexer and
// returns its value, its declared width (0 if none), and whether the
// spelling carried a width prefix.
func DecodeInt(lit string) (val uint64, width int, hasWidth bool, err error) {
	body := lit
	if i := strings.IndexByte(lit, 'w'); i > 0 {
		hasWidth = true
		var w uint64
		w, err = parseUint(lit[:i], 10)
		if err != nil || w == 0 || w > 64 {
			return 0, 0, true, fmt.Errorf("bad width in literal %q", lit)
		}
		width = int(w)
		body = lit[i+1:]
	}
	base := 10
	if strings.HasPrefix(body, "0x") || strings.HasPrefix(body, "0X") {
		base = 16
		body = body[2:]
	}
	val, err = parseUint(body, base)
	if err != nil {
		return 0, 0, hasWidth, fmt.Errorf("bad integer literal %q", lit)
	}
	return val, width, hasWidth, nil
}

func parseUint(s string, base int) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty numeral")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d uint64
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		if d >= uint64(base) {
			return 0, fmt.Errorf("digit %q out of range for base %d", c, base)
		}
		nv := v*uint64(base) + d
		if nv < v {
			return 0, fmt.Errorf("overflow")
		}
		v = nv
	}
	return v, nil
}
