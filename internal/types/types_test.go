package types

import (
	"testing"

	"repro/internal/lattice"
)

func lbl(t *testing.T, name string) lattice.Label {
	t.Helper()
	l, ok := lattice.TwoPoint().Lookup(name)
	if !ok {
		t.Fatalf("no label %s", name)
	}
	return l
}

func TestEqualScalars(t *testing.T) {
	cases := []struct {
		a, b Type
		eq   bool
	}{
		{Bool{}, Bool{}, true},
		{Int{}, Int{}, true},
		{Unit{}, Unit{}, true},
		{Bit{8}, Bit{8}, true},
		{Bit{8}, Bit{16}, false},
		{Bool{}, Int{}, false},
		{Bit{8}, Int{}, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.eq {
			t.Errorf("Equal(%s, %s) = %t, want %t", c.a, c.b, got, c.eq)
		}
	}
}

func TestEqualComposite(t *testing.T) {
	low, high := lbl(t, "low"), lbl(t, "high")
	mk := func(l lattice.Label) *Header {
		return &Header{Fields: []Field{
			{Name: "f", Type: SecType{T: Bit{8}, L: l}},
		}}
	}
	if !Equal(mk(low), mk(low)) {
		t.Error("identical headers unequal")
	}
	// Labels are part of the type: differing field labels make types
	// unequal (this is what forbids inout label changes).
	if Equal(mk(low), mk(high)) {
		t.Error("headers with different field labels compare equal")
	}
	if !BaseEqual(mk(low), mk(high)) {
		t.Error("BaseEqual should ignore labels")
	}
	r1 := &Record{Fields: []Field{{Name: "a", Type: SecType{T: Bool{}, L: low}}}}
	r2 := &Record{Fields: []Field{{Name: "b", Type: SecType{T: Bool{}, L: low}}}}
	if Equal(r1, r2) {
		t.Error("records with different field names compare equal")
	}
	if Equal(mk(low), r1) {
		t.Error("header equals record")
	}
}

func TestEqualStackTableFunc(t *testing.T) {
	low, high := lbl(t, "low"), lbl(t, "high")
	s1 := &Stack{Elem: SecType{T: Bit{8}, L: low}, Size: 4}
	s2 := &Stack{Elem: SecType{T: Bit{8}, L: low}, Size: 4}
	s3 := &Stack{Elem: SecType{T: Bit{8}, L: low}, Size: 5}
	if !Equal(s1, s2) || Equal(s1, s3) {
		t.Error("stack equality wrong")
	}
	t1 := &Table{PCTbl: low}
	t2 := &Table{PCTbl: high}
	if Equal(t1, t2) {
		t.Error("tables with different pc_tbl compare equal")
	}
	f1 := &Func{Params: []Param{{Name: "x", Dir: In, Type: SecType{T: Bit{8}, L: low}}},
		PCFn: low, Ret: SecType{T: Unit{}, L: low}, IsAction: true}
	f2 := &Func{Params: []Param{{Name: "x", Dir: InOut, Type: SecType{T: Bit{8}, L: low}}},
		PCFn: low, Ret: SecType{T: Unit{}, L: low}, IsAction: true}
	if Equal(f1, f2) {
		t.Error("functions with different param directions compare equal")
	}
}

func TestFieldOf(t *testing.T) {
	low := lbl(t, "low")
	h := &Header{Fields: []Field{
		{Name: "a", Type: SecType{T: Bit{8}, L: low}},
		{Name: "b", Type: SecType{T: Bool{}, L: low}},
	}}
	f, ok := FieldOf(h, "b")
	if !ok || f.Name != "b" {
		t.Errorf("FieldOf(b) = %v, %t", f, ok)
	}
	if _, ok := FieldOf(h, "zzz"); ok {
		t.Error("FieldOf(zzz) found")
	}
	if _, ok := FieldOf(Bit{8}, "a"); ok {
		t.Error("FieldOf on scalar found a field")
	}
}

func TestIsBaseIsScalar(t *testing.T) {
	low := lbl(t, "low")
	base := []Type{Bool{}, Int{}, Bit{8}, Unit{},
		&Record{}, &Header{}, &Stack{Elem: SecType{T: Bit{8}, L: low}, Size: 1},
		&MatchKind{Members: []string{"exact"}}}
	for _, b := range base {
		if !IsBase(b) {
			t.Errorf("IsBase(%s) = false", b)
		}
	}
	notBase := []Type{&Table{PCTbl: low}, &Func{}}
	for _, nb := range notBase {
		if IsBase(nb) {
			t.Errorf("IsBase(%s) = true", nb)
		}
	}
	if !IsScalar(Bool{}) || !IsScalar(Bit{4}) || IsScalar(&Record{}) || IsScalar(&Header{}) {
		t.Error("IsScalar classification wrong")
	}
}

func TestStrip(t *testing.T) {
	low, high := lbl(t, "low"), lbl(t, "high")
	h := &Header{Fields: []Field{{Name: "x", Type: SecType{T: Bit{8}, L: high}}}}
	s := Strip(h).(*Header)
	if !s.Fields[0].Type.L.IsZero() {
		t.Error("Strip left a label")
	}
	// Original untouched.
	if h.Fields[0].Type.L != high {
		t.Error("Strip mutated its argument")
	}
	_ = low
}

func TestEnvScoping(t *testing.T) {
	low := lbl(t, "low")
	e := NewEnv()
	e.Bind("x", SecType{T: Bit{8}, L: low})
	outer := e.Open()
	e.Bind("y", SecType{T: Bool{}, L: low})
	if _, ok := e.Lookup("x"); !ok {
		t.Error("inner scope cannot see outer binding")
	}
	// Shadowing.
	e.Bind("x", SecType{T: Bool{}, L: low})
	got, _ := e.Lookup("x")
	if _, isBool := got.T.(Bool); !isBool {
		t.Error("shadowing failed")
	}
	if !e.InCurrentScope("x") || e.InCurrentScope("zzz") {
		t.Error("InCurrentScope wrong")
	}
	e.Close(outer)
	if _, ok := e.Lookup("y"); ok {
		t.Error("outer scope sees inner binding")
	}
	orig, _ := e.Lookup("x")
	if _, isBit := orig.T.(Bit); !isBit {
		t.Error("outer binding clobbered by shadow")
	}
	if e.InCurrentScope("y") {
		t.Error("InCurrentScope leaked to outer scope")
	}
}

func TestTypeDefs(t *testing.T) {
	low := lbl(t, "low")
	d := NewTypeDefs()
	if err := d.Define("ip4_t", SecType{T: Bit{32}, L: low}); err != nil {
		t.Fatal(err)
	}
	if err := d.Define("ip4_t", SecType{T: Bit{32}, L: low}); err == nil {
		t.Error("redefinition allowed")
	}
	got, ok := d.Lookup("ip4_t")
	if !ok || !Equal(got.T, Bit{32}) {
		t.Errorf("Lookup = %v, %t", got, ok)
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Error("phantom lookup")
	}
	if len(d.Names()) != 1 {
		t.Errorf("Names = %v", d.Names())
	}
}

func TestStringRendering(t *testing.T) {
	low, high := lbl(t, "low"), lbl(t, "high")
	cases := map[string]string{
		Bit{8}.String():                      "bit<8>",
		Bool{}.String():                      "bool",
		Unit{}.String():                      "unit",
		(&Table{PCTbl: high}).String():       "table(high)",
		SecType{T: Bit{8}, L: high}.String(): "<bit<8>, high>",
		(&Stack{Elem: SecType{T: Bit{8}, L: low}, Size: 3}).String(): "<bit<8>, low>[3]",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("rendered %q, want %q", got, want)
		}
	}
	f := &Func{
		Params:   []Param{{Name: "x", Dir: In, Type: SecType{T: Bit{8}, L: low}}},
		PCFn:     high,
		Ret:      SecType{T: Unit{}, L: low},
		IsAction: true,
	}
	if got := f.String(); got != "action(in <bit<8>, low>) --high--> <unit, low>" {
		t.Errorf("func rendered %q", got)
	}
}
