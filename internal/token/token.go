// Package token defines the lexical tokens of the P4 subset accepted by the
// P4BID frontend, along with source positions used in diagnostics.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keywords occupy the range (keywordBeg, keywordEnd).
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // foo, hdr, ipv4_lpm
	INT    // 123, 0x1F, 8w255 (width handled by the lexer as two tokens)
	TRUE   // true
	FALSE  // false
	STRING // "..." (reserved; unused by the core grammar)

	// Punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOT       // .
	AT        // @

	// Operators.
	ASSIGN  // =
	NOT     // !
	BITNOT  // ~
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	AMP     // &
	PIPE    // |
	CARET   // ^
	AND     // &&
	OR      // ||
	EQ      // ==
	NEQ     // !=
	LT      // <
	GT      // >
	LEQ     // <=
	GEQ     // >=
	SHL     // <<
	SHR     // >>

	keywordBeg
	// Keywords.
	ACTION
	APPLY
	BIT
	BOOL
	CONTROL
	ELSE
	EXIT
	FUNCTION
	HEADER
	IF
	IN
	INOUT
	INT_T // "int" type keyword (INT is the literal)
	MATCH_KIND
	OUT
	RETURN
	STRUCT
	TABLE
	TYPEDEF
	VOID
	CONST
	REGISTER
	keywordEnd
)

var kindNames = [...]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "identifier", INT: "integer",
	TRUE: "true", FALSE: "false", STRING: "string",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]", COMMA: ",", SEMICOLON: ";", COLON: ":",
	DOT: ".", AT: "@", ASSIGN: "=", NOT: "!", BITNOT: "~",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", AND: "&&", OR: "||",
	EQ: "==", NEQ: "!=", LT: "<", GT: ">", LEQ: "<=", GEQ: ">=",
	SHL: "<<", SHR: ">>",
	ACTION: "action", APPLY: "apply", BIT: "bit", BOOL: "bool",
	CONTROL: "control", ELSE: "else", EXIT: "exit", FUNCTION: "function",
	HEADER: "header", IF: "if", IN: "in", INOUT: "inout", INT_T: "int",
	MATCH_KIND: "match_kind", OUT: "out",
	RETURN: "return", STRUCT: "struct", TABLE: "table", TYPEDEF: "typedef",
	VOID: "void", CONST: "const", REGISTER: "register",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LookupIdent maps an identifier spelling to its keyword kind, or IDENT.
// The lexer calls it on every identifier, so it is a string switch (which
// the compiler dispatches on length before comparing bytes) rather than a
// map lookup that hashes every spelling.
func LookupIdent(s string) Kind {
	switch s {
	case "action":
		return ACTION
	case "apply":
		return APPLY
	case "bit":
		return BIT
	case "bool":
		return BOOL
	case "control":
		return CONTROL
	case "else":
		return ELSE
	case "exit":
		return EXIT
	case "function":
		return FUNCTION
	case "header":
		return HEADER
	case "if":
		return IF
	case "in":
		return IN
	case "inout":
		return INOUT
	case "int":
		return INT_T
	case "match_kind":
		return MATCH_KIND
	case "out":
		return OUT
	case "return":
		return RETURN
	case "struct":
		return STRUCT
	case "table":
		return TABLE
	case "typedef":
		return TYPEDEF
	case "void":
		return VOID
	case "const":
		return CONST
	case "register":
		return REGISTER
	case "true":
		return TRUE
	case "false":
		return FALSE
	}
	return IDENT
}

// Pos is a source position: 1-based line and column plus the file name.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col (or line:col without a file).
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a lexical token with its spelling and position.
type Token struct {
	Kind Kind
	Lit  string // original spelling for IDENT, INT, STRING
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, STRING:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
