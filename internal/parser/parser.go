// Package parser implements a recursive-descent parser for the P4 subset
// of the P4BID paper: the Core P4 fragment of Figure 1 in its natural P4-16
// surface syntax, extended with the security annotations <τ, χ> of
// Listing 2 and an optional @pc("label") annotation on control blocks
// (Section 5.4 checks Alice's control at pc = A and Bob's at pc = B).
//
// The grammar (see testdata in parser_test.go for examples):
//
//	program   := topDecl*
//	topDecl   := typedef | match_kind | header | struct | const | control
//	control   := [ '@' 'pc' '(' label ')' ] 'control' name '(' params ')'
//	             '{' (action | function | table | var | const)* apply '}'
//	action    := 'action' name '(' params ')' block
//	function  := 'function' retType name '(' params ')' block
//	table     := 'table' name '{' 'key' '=' '{' (expr ':' kind ';')* '}'
//	             'actions' '=' '{' (ref ';')* '}' [default_action = ref ';'] '}'
//	secType   := '<' baseType ',' label '>' | baseType
//	baseType  := 'bool' | 'int' | 'bit' '<' INT '>' | 'void' | name, each
//	             optionally suffixed '[' INT ']' for header stacks
//
// Statements and expressions follow Figure 1; t.apply() in statement
// position parses to a dedicated ApplyStmt node.
package parser

import (
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Parse parses a complete program. file names the source in positions.
func Parse(file, src string) (*ast.Program, error) {
	p := &parser{lx: lexer.New(file, src)}
	prog := &ast.Program{File: file}
	var perr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if b, ok := r.(bailout); ok {
					perr = b.err
					return
				}
				panic(r)
			}
		}()
		// Inside the recovered region: lexing the first token can already
		// fail (e.g. an unterminated string literal).
		p.next()
		for p.tok.Kind != token.EOF {
			d := p.parseTopDecl()
			if c, ok := d.(*ast.ControlDecl); ok {
				prog.Controls = append(prog.Controls, c)
			} else {
				prog.Decls = append(prog.Decls, d)
			}
		}
	}()
	if perr != nil {
		return nil, perr
	}
	return prog, nil
}

// ParseExpr parses a single expression (used by tests and the REPL-ish
// tooling).
func ParseExpr(src string) (e ast.Expr, err error) {
	p := &parser{lx: lexer.New("", src)}
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bailout); ok {
				err = b.err
				return
			}
			panic(r)
		}
	}()
	p.next()
	e = p.parseExpr()
	p.expect(token.EOF)
	return e, nil
}

type bailout struct{ err error }

type parser struct {
	lx  *lexer.Lexer
	tok token.Token
	// stmts and exprs are scratch stacks: a block's statements and a
	// call's arguments collect on top while nested ones come and go, and
	// are copied out at their exact length once complete.
	stmts []ast.Stmt
	exprs []ast.Expr
}

func (p *parser) next() {
	if err := p.lx.Scan(&p.tok); err != nil {
		panic(bailout{err})
	}
}

func (p *parser) errf(pos token.Pos, format string, args ...any) {
	panic(bailout{fmt.Errorf("%s: syntax error: %s", pos, fmt.Sprintf(format, args...))})
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.tok.Kind != k {
		p.errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	if k != token.EOF {
		p.next()
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// expectCloseAngle consumes a single '>' in type context, splitting a '>>'
// token into two closing angles when necessary (e.g. stack of bit types).
func (p *parser) expectCloseAngle() {
	switch p.tok.Kind {
	case token.GT:
		p.next()
	case token.SHR:
		// Split >> into > >.
		pos := p.tok.Pos
		pos.Col++
		p.next()
		p.lx.Push(token.Token{Kind: token.GT, Pos: pos})
	case token.GEQ:
		// Split >= into > =.
		pos := p.tok.Pos
		pos.Col++
		p.next()
		p.lx.Push(token.Token{Kind: token.ASSIGN, Pos: pos})
	default:
		p.errf(p.tok.Pos, "expected '>' closing type, found %s", p.tok)
	}
}

// ---------------------------------------------------------------------------
// Types

// parseSecType parses <base, label> or a bare base type (label "").
func (p *parser) parseSecType() *ast.SecType {
	pos := p.tok.Pos
	if p.tok.Kind == token.LT {
		p.next()
		base := p.parseBaseType()
		p.expect(token.COMMA)
		lbl := p.expect(token.IDENT).Lit
		p.expectCloseAngle()
		st := &ast.SecType{P: pos, Base: base, Label: lbl}
		return p.parseStackSuffix(st)
	}
	base := p.parseBaseType()
	st := &ast.SecType{P: pos, Base: base}
	return p.parseStackSuffix(st)
}

// parseStackSuffix wraps st in stack types for each [N] suffix.
func (p *parser) parseStackSuffix(st *ast.SecType) *ast.SecType {
	for p.tok.Kind == token.LBRACKET {
		pos := p.tok.Pos
		p.next()
		sz := p.parseIntConst()
		p.expect(token.RBRACKET)
		st = &ast.SecType{P: st.P, Base: &ast.StackType{P: pos, Elem: st, Size: sz}}
	}
	return st
}

func (p *parser) parseIntConst() int {
	t := p.expect(token.INT)
	v, w, hasW, err := lexer.DecodeInt(t.Lit)
	if err != nil {
		p.errf(t.Pos, "%v", err)
	}
	if hasW {
		_ = w // width prefix allowed but ignored in const positions
	}
	if v > 1<<30 {
		p.errf(t.Pos, "constant %d too large", v)
	}
	return int(v)
}

func (p *parser) parseBaseType() ast.Type {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.BOOL:
		p.next()
		return &ast.BoolType{P: pos}
	case token.INT_T:
		p.next()
		return &ast.IntType{P: pos}
	case token.VOID:
		p.next()
		return &ast.VoidType{P: pos}
	case token.BIT:
		p.next()
		p.expect(token.LT)
		w := p.parseIntConst()
		if w < 1 || w > 64 {
			p.errf(pos, "bit width %d out of range [1,64]", w)
		}
		p.expectCloseAngle()
		return &ast.BitType{P: pos, Width: w}
	case token.IDENT:
		name := p.tok.Lit
		p.next()
		return &ast.NamedType{P: pos, Name: name}
	default:
		p.errf(pos, "expected a type, found %s", p.tok)
		return nil
	}
}

// startsType reports whether the current token can begin a type in
// statement position, distinguishing local declarations from expression
// statements. A '<' always starts an annotated type (no expression starts
// with '<'); an identifier starts a type only if followed by another
// identifier (named type + variable name).
func (p *parser) startsType() bool {
	switch p.tok.Kind {
	case token.LT, token.BOOL, token.INT_T, token.BIT, token.VOID:
		return true
	case token.IDENT:
		// Lookahead one token: `name name` is a declaration with a named
		// type; `name[` is indexing (an assignment target), since stack
		// locals are written `bit<8>[4] x` with a keyword type.
		save := p.tok
		t, err := p.lx.Next()
		if err != nil {
			panic(bailout{err})
		}
		p.lx.Push(t)
		p.tok = save
		return t.Kind == token.IDENT
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseTopDecl() ast.Decl {
	switch p.tok.Kind {
	case token.TYPEDEF:
		return p.parseTypedef()
	case token.MATCH_KIND:
		return p.parseMatchKind()
	case token.HEADER:
		return p.parseHeaderOrStruct(true)
	case token.STRUCT:
		return p.parseHeaderOrStruct(false)
	case token.CONST:
		return p.parseConst()
	case token.AT, token.CONTROL:
		return p.parseControl()
	default:
		p.errf(p.tok.Pos, "expected a declaration, found %s", p.tok)
		return nil
	}
}

func (p *parser) parseTypedef() ast.Decl {
	pos := p.expect(token.TYPEDEF).Pos
	t := p.parseSecType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return &ast.TypedefDecl{P: pos, Type: t, Name: name}
}

func (p *parser) parseMatchKind() ast.Decl {
	pos := p.expect(token.MATCH_KIND).Pos
	p.expect(token.LBRACE)
	var members []string
	for p.tok.Kind != token.RBRACE {
		members = append(members, p.expect(token.IDENT).Lit)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	p.accept(token.SEMICOLON)
	if len(members) == 0 {
		p.errf(pos, "match_kind declaration needs at least one member")
	}
	return &ast.MatchKindDecl{P: pos, Members: members}
}

func (p *parser) parseHeaderOrStruct(isHeader bool) ast.Decl {
	var pos token.Pos
	if isHeader {
		pos = p.expect(token.HEADER).Pos
	} else {
		pos = p.expect(token.STRUCT).Pos
	}
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	var fields []ast.FieldDecl
	for p.tok.Kind != token.RBRACE {
		fp := p.tok.Pos
		ft := p.parseSecType()
		fn := p.expect(token.IDENT).Lit
		// Allow field[N] as an alternative stack spelling.
		for p.tok.Kind == token.LBRACKET {
			bp := p.tok.Pos
			p.next()
			sz := p.parseIntConst()
			p.expect(token.RBRACKET)
			ft = &ast.SecType{P: ft.P, Base: &ast.StackType{P: bp, Elem: ft, Size: sz}}
		}
		p.expect(token.SEMICOLON)
		fields = append(fields, ast.FieldDecl{P: fp, Type: ft, Name: fn})
	}
	p.expect(token.RBRACE)
	p.accept(token.SEMICOLON)
	if isHeader {
		return &ast.HeaderDecl{P: pos, Name: name, Fields: fields}
	}
	return &ast.StructDecl{P: pos, Name: name, Fields: fields}
}

func (p *parser) parseConst() *ast.VarDecl {
	pos := p.expect(token.CONST).Pos
	t := p.parseSecType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.ASSIGN)
	init := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.VarDecl{P: pos, Type: t, Name: name, Init: init, Const: true}
}

func (p *parser) parseControl() *ast.ControlDecl {
	var pcLabel string
	pos := p.tok.Pos
	if p.tok.Kind == token.AT {
		p.next()
		ann := p.expect(token.IDENT)
		if ann.Lit != "pc" {
			p.errf(ann.Pos, "unknown annotation @%s (only @pc is supported)", ann.Lit)
		}
		p.expect(token.LPAREN)
		pcLabel = p.expect(token.IDENT).Lit
		p.expect(token.RPAREN)
	}
	p.expect(token.CONTROL)
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	p.expect(token.LBRACE)
	c := &ast.ControlDecl{P: pos, Name: name, Params: params, PCLabel: pcLabel}
	for p.tok.Kind != token.RBRACE {
		switch p.tok.Kind {
		case token.ACTION:
			c.Locals = append(c.Locals, p.parseAction())
		case token.FUNCTION:
			c.Locals = append(c.Locals, p.parseFunction())
		case token.TABLE:
			c.Locals = append(c.Locals, p.parseTable())
		case token.CONST:
			c.Locals = append(c.Locals, p.parseConst())
		case token.REGISTER:
			c.Locals = append(c.Locals, p.parseRegister())
		case token.APPLY:
			ap := p.tok.Pos
			p.next()
			if c.Apply != nil {
				p.errf(ap, "control %s has multiple apply blocks", name)
			}
			c.Apply = p.parseBlock()
		default:
			if p.startsType() {
				c.Locals = append(c.Locals, p.parseVarDecl())
				continue
			}
			p.errf(p.tok.Pos, "expected action, function, table, declaration, or apply; found %s", p.tok)
		}
	}
	p.expect(token.RBRACE)
	if c.Apply == nil {
		p.errf(pos, "control %s has no apply block", name)
	}
	return c
}

func (p *parser) parseParams() []ast.Param {
	p.expect(token.LPAREN)
	var params []ast.Param
	for p.tok.Kind != token.RPAREN {
		pp := p.tok.Pos
		dir := ast.DirNone
		switch p.tok.Kind {
		case token.IN:
			dir = ast.DirIn
			p.next()
		case token.OUT:
			dir = ast.DirOut
			p.next()
		case token.INOUT:
			dir = ast.DirInOut
			p.next()
		}
		t := p.parseSecType()
		name := p.expect(token.IDENT).Lit
		params = append(params, ast.Param{P: pp, Dir: dir, Type: t, Name: name})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

func (p *parser) parseAction() *ast.FuncDecl {
	pos := p.expect(token.ACTION).Pos
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	body := p.parseBlock()
	return &ast.FuncDecl{P: pos, Name: name, IsAction: true, Params: params, Body: body}
}

func (p *parser) parseFunction() *ast.FuncDecl {
	pos := p.expect(token.FUNCTION).Pos
	var ret *ast.SecType
	if p.tok.Kind == token.VOID {
		p.next()
	} else {
		ret = p.parseSecType()
	}
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	body := p.parseBlock()
	return &ast.FuncDecl{P: pos, Name: name, Ret: ret, Params: params, Body: body}
}

func (p *parser) parseTable() *ast.TableDecl {
	pos := p.expect(token.TABLE).Pos
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	tbl := &ast.TableDecl{P: pos, Name: name}
	seenKeys, seenActions := false, false
	for p.tok.Kind != token.RBRACE {
		if p.tok.Kind != token.IDENT {
			p.errf(p.tok.Pos, "expected key, actions, or default_action in table %s; found %s", name, p.tok)
		}
		switch p.tok.Lit {
		case "key":
			kp := p.tok.Pos
			if seenKeys {
				p.errf(kp, "table %s has multiple key properties", name)
			}
			seenKeys = true
			p.next()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for p.tok.Kind != token.RBRACE {
				ep := p.tok.Pos
				e := p.parseExpr()
				p.expect(token.COLON)
				mk := p.expect(token.IDENT).Lit
				p.expect(token.SEMICOLON)
				tbl.Keys = append(tbl.Keys, ast.TableKey{P: ep, Expr: e, MatchKind: mk})
			}
			p.expect(token.RBRACE)
		case "actions":
			apos := p.tok.Pos
			if seenActions {
				p.errf(apos, "table %s has multiple actions properties", name)
			}
			seenActions = true
			p.next()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for p.tok.Kind != token.RBRACE {
				tbl.Actions = append(tbl.Actions, p.parseActionRef())
				p.expect(token.SEMICOLON)
			}
			p.expect(token.RBRACE)
		case "default_action":
			p.next()
			p.expect(token.ASSIGN)
			ref := p.parseActionRef()
			p.expect(token.SEMICOLON)
			tbl.Default = &ref
		default:
			p.errf(p.tok.Pos, "expected key, actions, or default_action in table %s; found %s", name, p.tok)
		}
	}
	p.expect(token.RBRACE)
	if len(tbl.Actions) == 0 {
		p.errf(pos, "table %s declares no actions", name)
	}
	return tbl
}

func (p *parser) parseActionRef() ast.ActionRef {
	pos := p.tok.Pos
	name := p.expect(token.IDENT).Lit
	ref := ast.ActionRef{P: pos, Name: name}
	if p.tok.Kind == token.LPAREN {
		p.next()
		for p.tok.Kind != token.RPAREN {
			ref.Args = append(ref.Args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	}
	return ref
}

// parseRegister parses `register τ name[N];` — a stateful register array
// whose storage persists across packets (Section 7 extension).
func (p *parser) parseRegister() *ast.VarDecl {
	pos := p.expect(token.REGISTER).Pos
	t := p.parseSecType()
	name := p.expect(token.IDENT).Lit
	// Accept size after the name too (`register bit<8> r[16];`).
	for p.tok.Kind == token.LBRACKET {
		bp := p.tok.Pos
		p.next()
		sz := p.parseIntConst()
		p.expect(token.RBRACKET)
		t = &ast.SecType{P: t.P, Base: &ast.StackType{P: bp, Elem: t, Size: sz}}
	}
	p.expect(token.SEMICOLON)
	if _, ok := t.Base.(*ast.StackType); !ok {
		p.errf(pos, "register %s must be an array (register τ %s[N];)", name, name)
	}
	return &ast.VarDecl{P: pos, Type: t, Name: name, Register: true}
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	pos := p.tok.Pos
	t := p.parseSecType()
	name := p.expect(token.IDENT).Lit
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	return &ast.VarDecl{P: pos, Type: t, Name: name, Init: init}
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	pos := p.expect(token.LBRACE).Pos
	base := len(p.stmts)
	for p.tok.Kind != token.RBRACE {
		p.stmts = append(p.stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return &ast.BlockStmt{P: pos, Stmts: popStack(&p.stmts, base)}
}

// popStack removes the entries of *stack from base up and returns them in
// a slice of their own, nil if there are none.
func popStack[T any](stack *[]T, base int) []T {
	top := (*stack)[base:]
	if len(top) == 0 {
		return nil
	}
	out := make([]T, len(top))
	copy(out, top)
	*stack = (*stack)[:base]
	return out
}

func (p *parser) parseStmt() ast.Stmt {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		return p.parseIf()
	case token.EXIT:
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.ExitStmt{P: pos}
	case token.RETURN:
		p.next()
		var x ast.Expr
		if p.tok.Kind != token.SEMICOLON {
			x = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return &ast.ReturnStmt{P: pos, X: x}
	case token.CONST:
		d := p.parseConst()
		return &ast.DeclStmt{P: pos, Decl: d}
	}
	if p.startsType() {
		d := p.parseVarDecl()
		return &ast.DeclStmt{P: pos, Decl: d}
	}
	// Expression statement or assignment.
	lhs := p.parseExpr()
	if p.accept(token.ASSIGN) {
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{P: pos, LHS: lhs, RHS: rhs}
	}
	p.expect(token.SEMICOLON)
	// Recognize t.apply() as a table application.
	if call, ok := lhs.(*ast.Call); ok && len(call.Args) == 0 {
		if m, ok := call.Fun.(*ast.Member); ok && m.Field == "apply" {
			return &ast.ApplyStmt{P: pos, Table: m.X}
		}
	}
	if _, ok := lhs.(*ast.Call); !ok {
		p.errf(pos, "expression statement must be a call, found %s", lhs)
	}
	return &ast.ExprStmt{P: pos, X: lhs}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	thenStmt := p.parseStmt()
	thenBlk, ok := thenStmt.(*ast.BlockStmt)
	if !ok {
		thenBlk = &ast.BlockStmt{P: thenStmt.Pos(), Stmts: []ast.Stmt{thenStmt}}
	}
	ifs := &ast.IfStmt{P: pos, Cond: cond, Then: thenBlk}
	if p.accept(token.ELSE) {
		elseStmt := p.parseStmt()
		switch e := elseStmt.(type) {
		case *ast.BlockStmt, *ast.IfStmt:
			ifs.Else = e
		default:
			ifs.Else = &ast.BlockStmt{P: elseStmt.Pos(), Stmts: []ast.Stmt{elseStmt}}
		}
	}
	return ifs
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

func (p *parser) parseOr() ast.Expr {
	x := p.parseAnd()
	for p.tok.Kind == token.OR {
		pos := p.tok.Pos
		p.next()
		y := p.parseAnd()
		x = &ast.Binary{P: pos, Op: token.OR, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAnd() ast.Expr {
	x := p.parseCmp()
	for p.tok.Kind == token.AND {
		pos := p.tok.Pos
		p.next()
		y := p.parseCmp()
		x = &ast.Binary{P: pos, Op: token.AND, X: x, Y: y}
	}
	return x
}

func (p *parser) parseCmp() ast.Expr {
	x := p.parseBitOr()
	for {
		switch p.tok.Kind {
		case token.EQ, token.NEQ, token.LT, token.GT, token.LEQ, token.GEQ:
			op, pos := p.tok.Kind, p.tok.Pos
			p.next()
			y := p.parseBitOr()
			x = &ast.Binary{P: pos, Op: op, X: x, Y: y}
		default:
			return x
		}
	}
}

func (p *parser) parseBitOr() ast.Expr {
	x := p.parseBitXor()
	for p.tok.Kind == token.PIPE {
		pos := p.tok.Pos
		p.next()
		y := p.parseBitXor()
		x = &ast.Binary{P: pos, Op: token.PIPE, X: x, Y: y}
	}
	return x
}

func (p *parser) parseBitXor() ast.Expr {
	x := p.parseBitAnd()
	for p.tok.Kind == token.CARET {
		pos := p.tok.Pos
		p.next()
		y := p.parseBitAnd()
		x = &ast.Binary{P: pos, Op: token.CARET, X: x, Y: y}
	}
	return x
}

func (p *parser) parseBitAnd() ast.Expr {
	x := p.parseShift()
	for p.tok.Kind == token.AMP {
		pos := p.tok.Pos
		p.next()
		y := p.parseShift()
		x = &ast.Binary{P: pos, Op: token.AMP, X: x, Y: y}
	}
	return x
}

func (p *parser) parseShift() ast.Expr {
	x := p.parseAdd()
	for p.tok.Kind == token.SHL || p.tok.Kind == token.SHR {
		op, pos := p.tok.Kind, p.tok.Pos
		p.next()
		y := p.parseAdd()
		x = &ast.Binary{P: pos, Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAdd() ast.Expr {
	x := p.parseMul()
	for p.tok.Kind == token.PLUS || p.tok.Kind == token.MINUS {
		op, pos := p.tok.Kind, p.tok.Pos
		p.next()
		y := p.parseMul()
		x = &ast.Binary{P: pos, Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseMul() ast.Expr {
	x := p.parseUnary()
	for p.tok.Kind == token.STAR || p.tok.Kind == token.SLASH || p.tok.Kind == token.PERCENT {
		op, pos := p.tok.Kind, p.tok.Pos
		p.next()
		y := p.parseUnary()
		x = &ast.Binary{P: pos, Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.NOT, token.MINUS, token.BITNOT:
		op, pos := p.tok.Kind, p.tok.Pos
		p.next()
		x := p.parseUnary()
		return &ast.Unary{P: pos, Op: op, X: x}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.DOT:
			pos := p.tok.Pos
			p.next()
			var f string
			if p.tok.Kind == token.APPLY {
				// `apply` is a keyword, but t.apply() uses it as a
				// member name.
				f = "apply"
				p.next()
			} else {
				f = p.expect(token.IDENT).Lit
			}
			x = &ast.Member{P: pos, X: x, Field: f}
		case token.LBRACKET:
			pos := p.tok.Pos
			p.next()
			i := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.Index{P: pos, X: x, I: i}
		case token.LPAREN:
			pos := p.tok.Pos
			p.next()
			base := len(p.exprs)
			for p.tok.Kind != token.RPAREN {
				p.exprs = append(p.exprs, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			x = &ast.Call{P: pos, Fun: x, Args: popStack(&p.exprs, base)}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.TRUE:
		p.next()
		return &ast.BoolLit{P: pos, Val: true}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{P: pos, Val: false}
	case token.INT:
		lit := p.tok.Lit
		p.next()
		v, w, hasW, err := lexer.DecodeInt(lit)
		if err != nil {
			p.errf(pos, "%v", err)
		}
		return &ast.IntLit{P: pos, Val: v, Width: w, HasWidth: hasW}
	case token.IDENT:
		name := p.tok.Lit
		p.next()
		return &ast.Ident{P: pos, Name: name}
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	case token.LBRACE:
		p.next()
		rec := &ast.RecordLit{P: pos}
		for p.tok.Kind != token.RBRACE {
			fp := p.tok.Pos
			name := p.expect(token.IDENT).Lit
			p.expect(token.ASSIGN)
			val := p.parseExpr()
			rec.Fields = append(rec.Fields, ast.FieldInit{P: fp, Name: name, Value: val})
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		return rec
	default:
		p.errf(pos, "expected an expression, found %s", p.tok)
		return nil
	}
}

// MustParse parses src and panics on error; intended for tests and for the
// embedded case-study programs, which are known-good.
func MustParse(file, src string) *ast.Program {
	prog, err := Parse(file, src)
	if err != nil {
		panic(errors.New("parser.MustParse: " + err.Error()))
	}
	return prog
}
