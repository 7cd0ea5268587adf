package lexer

import (
	"fmt"

	"repro/internal/token"
)

// refLexer is the byte-at-a-time scanner Scan replaced: every byte goes
// through advance, which keeps the line and column. It is the reference
// TestScanMatchesNext checks Scan and Next against. Like Scan, it ends the
// input at its last byte, not at a NUL: a NUL is an illegal character
// outside a comment and ordinary text inside one.
type refLexer struct {
	src  string
	file string
	off  int // byte offset of next rune
	line int
	col  int

	peeked []token.Token // pushback buffer used by the parser
}

func newRef(file, src string) *refLexer {
	return &refLexer{src: src, file: file, line: 1, col: 1}
}

// Errorf builds a positioned lexical error.
func (l *refLexer) errorf(p token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

func (l *refLexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *refLexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peekByte2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// skipSpaceAndComments consumes whitespace and comments; it returns an error
// for an unterminated block comment.
func (l *refLexer) skipSpaceAndComments() error {
	for {
		for isSpace(l.peekByte()) {
			l.advance()
		}
		if l.peekByte() == '/' && l.peekByte2() == '/' {
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
			continue
		}
		if l.peekByte() == '/' && l.peekByte2() == '*' {
			p := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return l.errorf(p, "unterminated block comment")
				}
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
			continue
		}
		return nil
	}
}

// Next returns the next token. After EOF it keeps returning EOF.
func (l *refLexer) Next() (token.Token, error) {
	if n := len(l.peeked); n > 0 {
		t := l.peeked[n-1]
		l.peeked = l.peeked[:n-1]
		return t, nil
	}
	if err := l.skipSpaceAndComments(); err != nil {
		return token.Token{Kind: token.ILLEGAL, Pos: l.pos()}, err
	}
	p := l.pos()
	c := l.peekByte()
	switch {
	case l.off >= len(l.src):
		return token.Token{Kind: token.EOF, Pos: p}, nil
	case isIdentStart(c):
		start := l.off
		for isIdentCont(l.peekByte()) {
			l.advance()
		}
		lit := l.src[start:l.off]
		return token.Token{Kind: token.LookupIdent(lit), Lit: lit, Pos: p}, nil
	case isDigit(c):
		return l.lexNumber(p)
	}
	l.advance()
	two := func(second byte, k2, k1 token.Kind) token.Token {
		if l.peekByte() == second {
			l.advance()
			return token.Token{Kind: k2, Pos: p}
		}
		return token.Token{Kind: k1, Pos: p}
	}
	switch c {
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: p}, nil
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: p}, nil
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: p}, nil
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: p}, nil
	case '[':
		return token.Token{Kind: token.LBRACKET, Pos: p}, nil
	case ']':
		return token.Token{Kind: token.RBRACKET, Pos: p}, nil
	case ',':
		return token.Token{Kind: token.COMMA, Pos: p}, nil
	case ';':
		return token.Token{Kind: token.SEMICOLON, Pos: p}, nil
	case ':':
		return token.Token{Kind: token.COLON, Pos: p}, nil
	case '.':
		return token.Token{Kind: token.DOT, Pos: p}, nil
	case '@':
		return token.Token{Kind: token.AT, Pos: p}, nil
	case '+':
		return token.Token{Kind: token.PLUS, Pos: p}, nil
	case '-':
		return token.Token{Kind: token.MINUS, Pos: p}, nil
	case '*':
		return token.Token{Kind: token.STAR, Pos: p}, nil
	case '/':
		return token.Token{Kind: token.SLASH, Pos: p}, nil
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: p}, nil
	case '^':
		return token.Token{Kind: token.CARET, Pos: p}, nil
	case '~':
		return token.Token{Kind: token.BITNOT, Pos: p}, nil
	case '&':
		return two('&', token.AND, token.AMP), nil
	case '|':
		return two('|', token.OR, token.PIPE), nil
	case '=':
		return two('=', token.EQ, token.ASSIGN), nil
	case '!':
		return two('=', token.NEQ, token.NOT), nil
	case '<':
		if l.peekByte() == '<' {
			l.advance()
			return token.Token{Kind: token.SHL, Pos: p}, nil
		}
		return two('=', token.LEQ, token.LT), nil
	case '>':
		if l.peekByte() == '>' {
			l.advance()
			return token.Token{Kind: token.SHR, Pos: p}, nil
		}
		return two('=', token.GEQ, token.GT), nil
	}
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: p},
		l.errorf(p, "unexpected character %q", c)
}

// lexNumber scans decimal, hex (0x...), and width-prefixed (8w255, 4w0xF)
// literals. Width-prefixed literals keep their full spelling in Lit; the
// parser decodes them.
func (l *refLexer) lexNumber(p token.Pos) (token.Token, error) {
	start := l.off
	for isDigit(l.peekByte()) {
		l.advance()
	}
	// Width-prefixed literal: <width>w<value>.
	if l.peekByte() == 'w' && (isDigit(l.peekByte2()) || l.peekByte2() == '0') {
		l.advance() // w
		if l.peekByte() == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
			l.advance()
			l.advance()
			if !isHexDigit(l.peekByte()) {
				return token.Token{Kind: token.ILLEGAL, Pos: p}, l.errorf(p, "malformed hex literal")
			}
			for isHexDigit(l.peekByte()) {
				l.advance()
			}
		} else {
			for isDigit(l.peekByte()) {
				l.advance()
			}
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: p}, nil
	}
	// Hex literal.
	if l.off-start == 1 && l.src[start] == '0' && (l.peekByte() == 'x' || l.peekByte() == 'X') {
		l.advance()
		if !isHexDigit(l.peekByte()) {
			return token.Token{Kind: token.ILLEGAL, Pos: p}, l.errorf(p, "malformed hex literal")
		}
		for isHexDigit(l.peekByte()) {
			l.advance()
		}
	}
	lit := l.src[start:l.off]
	if isIdentStart(l.peekByte()) {
		return token.Token{Kind: token.ILLEGAL, Lit: lit, Pos: p},
			l.errorf(p, "identifier character immediately after number %q", lit)
	}
	return token.Token{Kind: token.INT, Lit: lit, Pos: p}, nil
}

// Push returns a token to the stream; the next call to Next yields it.
// The parser uses this for one-token splits such as turning SHR into GT GT
// when closing nested angle brackets of a type.
func (l *refLexer) Push(t token.Token) { l.peeked = append(l.peeked, t) }
