package resolve

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/token"
	"repro/internal/types"
)

func newTestResolver(t *testing.T) (*Resolver, *diag.List) {
	t.Helper()
	var diags diag.List
	return New(lattice.TwoPoint(), &diags), &diags
}

func TestLabelResolution(t *testing.T) {
	r, diags := newTestResolver(t)
	low := r.Label(pos(), "")
	if low != r.Lat.Bottom() {
		t.Errorf("empty label = %s, want bottom", low)
	}
	high := r.Label(pos(), "high")
	if high.Name() != "high" {
		t.Errorf("high = %s", high)
	}
	_ = r.Label(pos(), "unknownlbl")
	if !diags.HasErrors() {
		t.Error("unknown label not reported")
	}
}

func pos() token.Pos { return token.Pos{File: "t.p4", Line: 1, Col: 1} }

func TestCollectTypeDecls(t *testing.T) {
	prog := parser.MustParse("t.p4", `
typedef bit<32> ip4_t;
typedef <bit<8>, high> sec8_t;
match_kind { range }
header h_t {
    ip4_t addr;
    sec8_t secret;
    <bool, low> flag;
}
struct headers { h_t h; }
control C(inout headers hdr) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if diags.HasErrors() {
		t.Fatalf("collect: %v", diags.Err())
	}
	// typedef unfolds through Δ.
	st, ok := r.Defs.Lookup("h_t")
	if !ok {
		t.Fatal("h_t not defined")
	}
	h, ok := st.T.(*types.Header)
	if !ok {
		t.Fatalf("h_t is %T", st.T)
	}
	if len(h.Fields) != 3 {
		t.Fatalf("fields = %d", len(h.Fields))
	}
	if !types.Equal(h.Fields[0].Type.T, types.Bit{W: 32}) {
		t.Errorf("addr type = %s, want bit<32> (typedef unfolded)", h.Fields[0].Type.T)
	}
	if h.Fields[1].Type.L.Name() != "high" {
		t.Errorf("secret label = %s; typedef label lost", h.Fields[1].Type.L)
	}
	// match_kind extended with "range" while keeping builtins.
	for _, m := range []string{"exact", "lpm", "ternary", "range"} {
		if !r.IsMatchKind(m) {
			t.Errorf("match kind %q missing", m)
		}
	}
	if r.IsMatchKind("bogus") {
		t.Error("bogus match kind accepted")
	}
}

func TestStandardMetadataBuiltin(t *testing.T) {
	r, _ := newTestResolver(t)
	st, ok := r.Defs.Lookup("standard_metadata_t")
	if !ok {
		t.Fatal("standard_metadata_t not predeclared")
	}
	rec, ok := st.T.(*types.Record)
	if !ok {
		t.Fatalf("standard_metadata_t is %T", st.T)
	}
	if _, ok := types.FieldOf(rec, "egress_spec"); !ok {
		t.Error("no egress_spec field")
	}
	for _, f := range rec.Fields {
		if f.Type.L != r.Lat.Bottom() {
			t.Errorf("metadata field %s not low", f.Name)
		}
	}
}

func TestBuiltins(t *testing.T) {
	r, _ := newTestResolver(t)
	bs := map[string]types.SecType{}
	var order []string
	for _, b := range r.Builtins() {
		bs[b.Name] = b.Type
		order = append(order, b.Name)
	}
	if len(order) != 2 || order[0] != "mark_to_drop" || order[1] != "NoAction" {
		t.Errorf("builtins in order %v, want [mark_to_drop NoAction]", order)
	}
	mtd, ok := bs["mark_to_drop"]
	if !ok {
		t.Fatal("no mark_to_drop")
	}
	ft := mtd.T.(*types.Func)
	if ft.PCFn != r.Lat.Bottom() {
		t.Errorf("mark_to_drop pc_fn = %s, want bottom (dropping is observable)", ft.PCFn)
	}
	na := bs["NoAction"].T.(*types.Func)
	if na.PCFn != r.Lat.Top() {
		t.Errorf("NoAction pc_fn = %s, want top (writes nothing)", na.PCFn)
	}
}

func TestAnnotationDistributesOverComposite(t *testing.T) {
	// <hdr_t, high> h raises every scalar leaf to at least high.
	prog := parser.MustParse("t.p4", `
header inner_t {
    <bit<8>, low> a;
    <bit<8>, high> b;
}
typedef <inner_t, high> secret_inner_t;
struct headers { secret_inner_t s; }
control C(inout headers hdr) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	st, _ := r.Defs.Lookup("secret_inner_t")
	h := st.T.(*types.Header)
	for _, f := range h.Fields {
		if f.Type.L.Name() != "high" {
			t.Errorf("field %s label = %s, want high (raised)", f.Name, f.Type.L)
		}
	}
}

func TestUnknownNamedType(t *testing.T) {
	prog := parser.MustParse("t.p4", `
struct headers { mystery_t m; }
control C(inout headers hdr) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if !diags.HasErrors() {
		t.Error("unknown named type not reported")
	}
}

func TestDuplicateField(t *testing.T) {
	prog := parser.MustParse("t.p4", `
header h_t { bit<8> f; bit<8> f; }
control C(inout standard_metadata_t m) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if !diags.HasErrors() {
		t.Error("duplicate field not reported")
	}
}

func TestTypeRedefinition(t *testing.T) {
	prog := parser.MustParse("t.p4", `
typedef bit<8> t_t;
typedef bit<16> t_t;
control C(inout standard_metadata_t m) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if !diags.HasErrors() {
		t.Error("type redefinition not reported")
	}
}

func TestStackResolution(t *testing.T) {
	prog := parser.MustParse("t.p4", `
header h_t { <bit<8>, high> vals[3]; }
struct headers { h_t h; }
control C(inout headers hdr) { apply { } }
`)
	r, diags := newTestResolver(t)
	r.CollectTypeDecls(prog)
	if diags.HasErrors() {
		t.Fatal(diags.Err())
	}
	st, _ := r.Defs.Lookup("h_t")
	f := st.T.(*types.Header).Fields[0]
	stack, ok := f.Type.T.(*types.Stack)
	if !ok || stack.Size != 3 {
		t.Fatalf("vals = %s", f.Type)
	}
	if stack.Elem.L.Name() != "high" {
		t.Errorf("element label = %s", stack.Elem.L)
	}
}
