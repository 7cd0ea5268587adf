package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/types"
)

func low(t *testing.T) lattice.Label {
	t.Helper()
	l, _ := lattice.TwoPoint().Lookup("low")
	return l
}

func sampleTypes(t *testing.T) []types.Type {
	lo := low(t)
	return []types.Type{
		types.Bool{},
		types.Int{},
		types.Bit{W: 1},
		types.Bit{W: 8},
		types.Bit{W: 64},
		types.Unit{},
		&types.MatchKind{Members: []string{"exact", "lpm"}},
		&types.Header{Fields: []types.Field{
			{Name: "a", Type: types.SecType{T: types.Bit{W: 8}, L: lo}},
			{Name: "b", Type: types.SecType{T: types.Bool{}, L: lo}},
		}},
		&types.Record{Fields: []types.Field{
			{Name: "x", Type: types.SecType{T: types.Bit{W: 4}, L: lo}},
		}},
		&types.Stack{Elem: types.SecType{T: types.Bit{W: 8}, L: lo}, Size: 3},
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		w    int
		v    uint64
		want uint64
	}{
		{8, 0xFFF, 0xFF},
		{8, 0x7F, 0x7F},
		{1, 3, 1},
		{64, ^uint64(0), ^uint64(0)},
		{32, 1 << 40, 0},
	}
	for _, c := range cases {
		if got := Mask(c.w, c.v); got != c.want {
			t.Errorf("Mask(%d, %#x) = %#x, want %#x", c.w, c.v, got, c.want)
		}
	}
}

func TestNewBitAlwaysMasked(t *testing.T) {
	f := func(w8 uint8, v uint64) bool {
		w := int(w8%64) + 1
		b := NewBit(w, v)
		return b.V == Mask(w, b.V)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroMatchesType(t *testing.T) {
	for _, typ := range sampleTypes(t) {
		v := Zero(typ)
		checkShape(t, v, typ)
	}
}

func TestRandomMatchesType(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, typ := range sampleTypes(t) {
		for i := 0; i < 20; i++ {
			checkShape(t, Random(typ, r), typ)
		}
	}
}

func checkShape(t *testing.T, v Value, typ types.Type) {
	t.Helper()
	switch typ := typ.(type) {
	case types.Bool:
		if _, ok := v.(BoolVal); !ok {
			t.Errorf("value of %s is %T", typ, v)
		}
	case types.Int:
		if _, ok := v.(IntVal); !ok {
			t.Errorf("value of %s is %T", typ, v)
		}
	case types.Bit:
		b, ok := v.(BitVal)
		if !ok || b.W != typ.W || b.V != Mask(typ.W, b.V) {
			t.Errorf("value of %s is %v", typ, v)
		}
	case types.Unit:
		if _, ok := v.(UnitVal); !ok {
			t.Errorf("value of %s is %T", typ, v)
		}
	case *types.MatchKind:
		if _, ok := v.(MatchKindVal); !ok {
			t.Errorf("value of %s is %T", typ, v)
		}
	case *types.Header:
		h, ok := v.(*HeaderVal)
		if !ok || len(h.Fields) != len(typ.Fields) {
			t.Fatalf("value of %s is %v", typ, v)
		}
		for i, f := range typ.Fields {
			if h.Fields[i].Name != f.Name {
				t.Errorf("field %d name %s, want %s", i, h.Fields[i].Name, f.Name)
			}
			checkShape(t, h.Fields[i].Val, f.Type.T)
		}
	case *types.Record:
		r, ok := v.(*RecordVal)
		if !ok || len(r.Fields) != len(typ.Fields) {
			t.Fatalf("value of %s is %v", typ, v)
		}
		for i, f := range typ.Fields {
			if r.Fields[i].Name != f.Name {
				t.Errorf("field %d name %s, want %s", i, r.Fields[i].Name, f.Name)
			}
			checkShape(t, r.Fields[i].Val, f.Type.T)
		}
	case *types.Stack:
		s, ok := v.(*StackVal)
		if !ok || len(s.Elems) != typ.Size {
			t.Fatalf("value of %s is %v", typ, v)
		}
		for _, e := range s.Elems {
			checkShape(t, e, typ.Elem.T)
		}
	}
}

func TestFieldOrderMismatch(t *testing.T) {
	lo := low(t)
	bit8 := types.SecType{T: types.Bit{W: 8}, L: lo}
	hdr := &types.Header{Fields: []types.Field{{Name: "a", Type: bit8}, {Name: "b", Type: bit8}}}
	typ := &types.Record{Fields: []types.Field{
		{Name: "hs", Type: types.SecType{T: &types.Stack{Elem: types.SecType{T: hdr}, Size: 2}}},
		{Name: "z", Type: bit8},
	}}
	mk := func(elem1 []NamedValue) Value {
		ok := []NamedValue{{"a", NewBit(8, 0)}, {"b", NewBit(8, 0)}}
		return &RecordVal{[]NamedValue{
			{"hs", &StackVal{[]Value{&HeaderVal{true, ok}, &HeaderVal{true, elem1}}}},
			{"z", NewBit(8, 0)},
		}}
	}
	cases := []struct {
		v    Value
		want string
	}{
		{Zero(typ), ""},
		{mk([]NamedValue{{"b", NewBit(8, 0)}, {"a", NewBit(8, 0)}}), `.hs[1]: field 0 is "b", declared "a"`},
		{mk([]NamedValue{{"a", NewBit(8, 0)}}), `.hs[1]: 1 fields, declared 2`},
		{&RecordVal{[]NamedValue{{"z", NewBit(8, 0)}, {"hs", Zero(typ.Fields[0].Type.T)}}}, `: field 0 is "z", declared "hs"`},
		{NewBit(8, 0), ""}, // another kind: positions never apply
	}
	for _, c := range cases {
		if got := FieldOrderMismatch(c.v, typ); got != c.want {
			t.Errorf("FieldOrderMismatch(%s) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqualReflexiveOnRandom(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, typ := range sampleTypes(t) {
		for i := 0; i < 10; i++ {
			v := Random(typ, r)
			if !ValueEqual(v, v) {
				t.Errorf("value %s not equal to itself", v)
			}
			if !ValueEqual(v, Copy(v)) {
				t.Errorf("copy of %s compares unequal", v)
			}
		}
	}
}

func TestValueEqualDistinguishes(t *testing.T) {
	if ValueEqual(BoolVal(true), BoolVal(false)) {
		t.Error("true == false")
	}
	if ValueEqual(NewBit(8, 1), NewBit(8, 2)) {
		t.Error("1 == 2")
	}
	if ValueEqual(NewBit(8, 1), NewBit(16, 1)) {
		t.Error("8w1 == 16w1 (widths differ)")
	}
	if ValueEqual(NewBit(8, 1), IntVal(1)) {
		t.Error("bit == int")
	}
	h1 := &HeaderVal{Valid: true, Fields: []NamedValue{{Name: "a", Val: NewBit(8, 1)}}}
	h2 := &HeaderVal{Valid: false, Fields: []NamedValue{{Name: "a", Val: NewBit(8, 1)}}}
	if ValueEqual(h1, h2) {
		t.Error("validity bit ignored")
	}
}

func TestCopyIsDeep(t *testing.T) {
	orig := &RecordVal{Fields: []NamedValue{
		{Name: "h", Val: &HeaderVal{Valid: true, Fields: []NamedValue{
			{Name: "x", Val: NewBit(8, 1)},
		}}},
		{Name: "s", Val: &StackVal{Elems: []Value{NewBit(8, 9)}}},
	}}
	cp := Copy(orig).(*RecordVal)
	// Mutate the copy's nested header.
	cp.Fields[0].Val.(*HeaderVal).Fields[0].Val = NewBit(8, 99)
	cp.Fields[1].Val.(*StackVal).Elems[0] = NewBit(8, 42)
	if got := orig.Fields[0].Val.(*HeaderVal).Fields[0].Val; !ValueEqual(got, NewBit(8, 1)) {
		t.Errorf("original header mutated through copy: %s", got)
	}
	if got := orig.Fields[1].Val.(*StackVal).Elems[0]; !ValueEqual(got, NewBit(8, 9)) {
		t.Errorf("original stack mutated through copy: %s", got)
	}
}

func TestStoreAllocGetSet(t *testing.T) {
	s := NewStore()
	l1 := s.Alloc(NewBit(8, 1))
	l2 := s.Alloc(NewBit(8, 2))
	if l1 == l2 {
		t.Fatal("allocations share a location")
	}
	if !ValueEqual(s.Get(l1), NewBit(8, 1)) {
		t.Error("Get(l1) wrong")
	}
	s.Set(l1, NewBit(8, 7))
	if !ValueEqual(s.Get(l1), NewBit(8, 7)) {
		t.Error("Set did not take")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStorePanicsOnDangling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get on dangling location did not panic")
		}
	}()
	NewStore().Get(42)
}

func TestEnvScopes(t *testing.T) {
	e := NewEnv()
	e.Bind("x", 1)
	c := e.Child()
	c.Bind("y", 2)
	c.Bind("x", 3) // shadow
	if l, _ := c.Lookup("x"); l != 3 {
		t.Errorf("shadowed x = %d", l)
	}
	if l, _ := e.Lookup("x"); l != 1 {
		t.Errorf("parent x = %d", l)
	}
	if _, ok := e.Lookup("y"); ok {
		t.Error("parent sees child binding")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]string{
		BoolVal(true).String():       "true",
		IntVal(-5).String():          "-5",
		NewBit(8, 255).String():      "8w255",
		(UnitVal{}).String():         "()",
		MatchKindVal("lpm").String(): "lpm",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("rendered %q, want %q", got, want)
		}
	}
	h := &HeaderVal{Valid: true, Fields: []NamedValue{{Name: "a", Val: NewBit(4, 2)}}}
	if h.String() != "header{valid = true, a = 4w2}" {
		t.Errorf("header rendered %q", h.String())
	}
}
