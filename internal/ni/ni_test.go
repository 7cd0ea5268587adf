package ni_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

// setField destructively sets a (nested) field of a record/header input.
func setField(v eval.Value, path []string, nv eval.Value) {
	for i, f := range path {
		var fields []eval.NamedValue
		switch vv := v.(type) {
		case *eval.RecordVal:
			fields = vv.Fields
		case *eval.HeaderVal:
			fields = vv.Fields
		default:
			panic("setField: cannot project " + v.String())
		}
		for j := range fields {
			if fields[j].Name == f {
				if i == len(path)-1 {
					fields[j].Val = nv
					return
				}
				v = fields[j].Val
				break
			}
		}
	}
}

// getField reads a nested field.
func getField(v eval.Value, path ...string) eval.Value {
	for _, f := range path {
		var fields []eval.NamedValue
		switch vv := v.(type) {
		case *eval.RecordVal:
			fields = vv.Fields
		case *eval.HeaderVal:
			fields = vv.Fields
		default:
			panic("getField: cannot project " + v.String())
		}
		for j := range fields {
			if fields[j].Name == f {
				v = fields[j].Val
				break
			}
		}
	}
	return v
}

func experiment(t *testing.T, p *progs.Program, v progs.Variant, control string) *ni.Experiment {
	t.Helper()
	prog := parser.MustParse(p.FileName(v), p.Source(v))
	return &ni.Experiment{
		Prog:    prog,
		Lat:     p.Lattice(),
		Control: control,
	}
}

// TestNonInterferenceFixedPrograms is the mechanical check of Theorem 4.3:
// every accepted (fixed) case-study program must be non-interfering under
// randomized two-run trials with a populated control plane.
func TestNonInterferenceFixedPrograms(t *testing.T) {
	const trials = 150
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := parser.MustParse(p.FileName(progs.Fixed), p.Source(progs.Fixed))
			for _, ctrl := range prog.Controls {
				e := &ni.Experiment{
					Prog:    prog,
					Lat:     p.Lattice(),
					Control: ctrl.Name,
					CP:      caseStudyCP(t, p.Name),
				}
				e.FixInputs = caseStudyFix(p.Name)
				vs, err := e.Run(trials, 42)
				if err != nil {
					t.Fatalf("%s: %v", ctrl.Name, err)
				}
				if len(vs) != 0 {
					t.Errorf("%s: %d NI violations in a well-typed program; first: %s",
						ctrl.Name, len(vs), vs[0])
				}
			}
		})
	}
}

// caseStudyCP builds a populated control plane for each case study so the
// trials exercise the tables rather than missing everywhere.
func caseStudyCP(t *testing.T, name string) *controlplane.ControlPlane {
	t.Helper()
	cp := controlplane.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	switch name {
	case "Topology":
		cp.DeclareTable("virtual2phys_topology", []string{"exact"})
		cp.DeclareTable("ipv4_lpm_forward", []string{"lpm"})
		must(cp.Install("virtual2phys_topology", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(32, 7)},
			Action:   "update_to_phys", Args: []uint64{0xC0A80001, 3},
		}))
		must(cp.Install("ipv4_lpm_forward", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.LPM(32, 0, 0)},
			Action:   "ipv4_forward", Args: []uint64{0xAABB, 4},
		}))
	case "D2R":
		cp.DeclareTable("bfs_step", []string{"exact", "ternary"})
		cp.DeclareTable("forward", []string{"exact"})
		must(cp.Install("forward", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(32, 5)},
			Action:   "forwarding",
		}))
		must(cp.Install("bfs_step", controlplane.Entry{
			Patterns: []controlplane.Pattern{
				controlplane.Exact(32, 9),
				controlplane.Ternary(32, 0, 0),
			},
			Action: "bfs_step_act", Args: []uint64{5},
		}))
	case "Cache":
		cp.DeclareTable("fetch_from_cache", []string{"exact"})
		must(cp.Install("fetch_from_cache", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(8, 42)},
			Action:   "cache_hit", Args: []uint64{777},
		}))
	case "App":
		cp.DeclareTable("app_resources", []string{"exact"})
		cp.DeclareTable("ipv4_forward_tbl", []string{"lpm"})
		must(cp.Install("app_resources", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(32, 3)},
			Action:   "set_priority", Args: []uint64{6},
		}))
		must(cp.Install("ipv4_forward_tbl", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.LPM(32, 0, 0)},
			Action:   "forward", Args: []uint64{9},
		}))
	case "Lattice":
		cp.DeclareTable("update_by_alice", []string{"exact"})
		cp.DeclareTable("update_by_bob", []string{"exact"})
		must(cp.Install("update_by_alice", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(32, 21)},
			Action:   "set_by_alice", Args: []uint64{11},
		}))
		must(cp.Install("update_by_bob", controlplane.Entry{
			Patterns: []controlplane.Pattern{controlplane.Exact(48, 2)},
			Action:   "set_by_bob",
		}))
	}
	return cp
}

// caseStudyFix steers the random inputs into the interesting branch of
// each case study (e.g. D2R must reach the forward table).
func caseStudyFix(name string) func(map[string]eval.Value) {
	switch name {
	case "D2R":
		return func(in map[string]eval.Value) {
			// Make the BFS "done" so forward.apply() runs, and hit the
			// installed forward entry.
			setField(in["hdr"], []string{"ipv4", "dstAddr"}, eval.NewBit(32, 9))
			setField(in["hdr"], []string{"bfs", "curr"}, eval.NewBit(32, 9))
			setField(in["hdr"], []string{"bfs", "next_node"}, eval.NewBit(32, 5))
			// Land below THRESHOLD in run A: popcount(0xFF)=8, 8-6=2 < 4.
			// Run B re-randomizes the high num_hops and lands above.
			setField(in["hdr"], []string{"bfs", "tried_links"}, eval.NewBit(32, 0xFF))
			setField(in["hdr"], []string{"bfs", "num_hops"}, eval.NewBit(32, 6))
		}
	case "Cache":
		return func(in map[string]eval.Value) {
			// Run A queries the cached key; run B re-randomizes the
			// (high) query and almost surely misses.
			setField(in["hdr"], []string{"req", "query"}, eval.NewBit(8, 42))
		}
	case "NetChain":
		return func(in map[string]eval.Value) {
			setField(in["hdr"], []string{"nc", "role"}, eval.NewBit(16, 1))
		}
	case "Topology":
		return func(in map[string]eval.Value) {
			setField(in["hdr"], []string{"ipv4", "dstAddr"}, eval.NewBit(32, 7))
		}
	case "App":
		return func(in map[string]eval.Value) {
			setField(in["hdr"], []string{"app", "appID"}, eval.NewBit(8, 3))
		}
	default:
		return nil
	}
}

// TestInterferenceWitnesses shows the buggy programs are genuinely
// insecure: the harness finds concrete two-run witnesses for the leaks the
// typechecker reports. This rules out the rejections being false alarms.
func TestInterferenceWitnesses(t *testing.T) {
	cases := []struct {
		name    string
		control string
	}{
		{"NetChain", ""}, // implicit flow: secret role decides public reply
		{"Cache", ""},    // timing: secret query decides public hit bit
		{"D2R", ""},      // implicit flow via table-invoked action
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, ok := progs.ByName(c.name)
			if !ok {
				t.Fatalf("no program %s", c.name)
			}
			e := experiment(t, p, progs.Buggy, c.control)
			e.CP = caseStudyCP(t, c.name)
			e.FixInputs = caseStudyFix(c.name)
			vs, err := e.Run(60, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) == 0 {
				t.Errorf("%s buggy: no interference witness found in 60 trials", c.name)
			} else {
				t.Logf("%s buggy: %d witnesses, e.g. %s", c.name, len(vs), vs[0])
			}
		})
	}
}

// TestAppIntegrityWitness demonstrates the integrity reading: with high =
// untrusted, a trusted (low) observer sees different priorities when only
// the untrusted appID differs.
func TestAppIntegrityWitness(t *testing.T) {
	p, _ := progs.ByName("App")
	e := experiment(t, p, progs.Buggy, "")
	e.CP = caseStudyCP(t, "App")
	e.FixInputs = caseStudyFix("App")
	vs, err := e.Run(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Error("App buggy: no integrity violation witness found")
	}
}

// TestDiamondObservers checks NI of the fixed isolation program at each
// observer level of the diamond lattice.
func TestDiamondObservers(t *testing.T) {
	p, _ := progs.ByName("Lattice")
	prog := parser.MustParse("lattice.p4", p.Source(progs.Fixed))
	lat := p.Lattice()
	for _, obsName := range []string{"bot", "A", "B"} {
		obs, ok := lat.Lookup(obsName)
		if !ok {
			t.Fatalf("no label %s", obsName)
		}
		for _, ctrl := range prog.Controls {
			e := &ni.Experiment{Prog: prog, Lat: lat, Control: ctrl.Name, Observer: obs,
				CP: caseStudyCP(t, "Lattice")}
			vs, err := e.Run(80, 3)
			if err != nil {
				t.Fatalf("%s at %s: %v", ctrl.Name, obsName, err)
			}
			if len(vs) != 0 {
				t.Errorf("%s at observer %s: violation %s", ctrl.Name, obsName, vs[0])
			}
		}
	}
}

// TestBuggyAliceViolatesIsolation: in the buggy Listing 6 Alice writes her
// value into Bob's field; a B-level observer sees outputs depending on
// Alice's (non-B) data.
func TestBuggyAliceViolatesIsolation(t *testing.T) {
	p, _ := progs.ByName("Lattice")
	prog := parser.MustParse("lattice.p4", p.Source(progs.Buggy))
	lat := p.Lattice()
	obs, _ := lat.Lookup("B")
	e := &ni.Experiment{Prog: prog, Lat: lat, Control: "Alice_Ingress", Observer: obs,
		CP: caseStudyCP(t, "Lattice")}
	// Alice's table keys on the top-labelled telemetry count, which is
	// above B: differing telemetry selects hit-vs-miss, and the installed
	// entry writes Bob's field. Steer run A onto the installed entry.
	e.FixInputs = func(in map[string]eval.Value) {
		setField(in["hdr"], []string{"telem", "count"}, eval.NewBit(32, 21))
	}
	vs, err := e.Run(80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Error("buggy Alice: no isolation violation witness found")
	}
}

// TestObservableOutputsMatchDocs sanity-checks getField against a run.
func TestObservableOutputsMatchDocs(t *testing.T) {
	p, _ := progs.ByName("NetChain")
	prog := parser.MustParse("netchain.p4", p.Source(progs.Buggy))
	in, err := eval.New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := in.ParamType("NetChain_Ingress", "hdr")
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]eval.Value{"hdr": eval.Zero(st.T)}
	setField(inputs["hdr"], []string{"nc", "role"}, eval.NewBit(16, 1))
	out, _, err := in.RunControl("", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := getField(out["hdr"], "nc", "reply"); !eval.ValueEqual(got, eval.NewBit(8, 0)) {
		t.Errorf("reply = %s, want 0 for head role", got)
	}
}

// TestFixInputsFieldOrder: FixInputs may edit the drawn inputs in place,
// as the isolation and stateful case studies do, and those edits still
// run on the compiled engine; an edit that reorders a header's fields is
// refused with an error naming the parameter, because compiled field
// accesses read by position.
func TestFixInputsFieldOrder(t *testing.T) {
	lattice, _ := progs.ByName("Lattice")
	lat := lattice.Lattice()
	obsB, _ := lat.Lookup("B")
	stateful, _ := progs.ByName("Stateful")
	isolation := func(in map[string]eval.Value) { // examples/isolation
		for _, f := range in["hdr"].(*eval.RecordVal).Fields {
			if f.Name == "telem" {
				f.Val.(*eval.HeaderVal).Fields[0].Val = eval.NewBit(32, 21)
			}
		}
	}
	cases := []struct {
		name string
		e    *ni.Experiment
	}{
		{"isolation", &ni.Experiment{
			Prog: parser.MustParse("lattice.p4", lattice.Source(progs.Buggy)), Lat: lat,
			Control: "Alice_Ingress", Observer: obsB, CP: caseStudyCP(t, "Lattice"), FixInputs: isolation,
		}},
		{"stateful", &ni.Experiment{
			Prog: parser.MustParse("stateful.p4", stateful.Source(progs.Buggy)), Lat: stateful.Lattice(), Packets: 4,
			FixInputs: func(in map[string]eval.Value) { // examples/stateful
				setField(in["hdr"], []string{"pkt", "secret_id"}, eval.NewBit(8, 5))
				setField(in["hdr"], []string{"pkt", "public_id"}, eval.NewBit(8, 5))
			},
		}},
	}
	for _, c := range cases {
		if c.e.Engine() == nil {
			t.Fatalf("%s: program did not compile", c.name)
		}
		vs, err := c.e.Run(60, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(vs) == 0 {
			t.Errorf("%s: buggy program gave no witness", c.name)
		}
	}

	reorder := cases[0].e
	reorder.FixInputs = func(in map[string]eval.Value) {
		isolation(in)
		for _, f := range in["hdr"].(*eval.RecordVal).Fields {
			if h, ok := f.Val.(*eval.HeaderVal); ok && len(h.Fields) > 1 {
				h.Fields[0], h.Fields[1] = h.Fields[1], h.Fields[0]
			}
		}
	}
	_, err := reorder.Run(1, 2)
	if err == nil || !strings.Contains(err.Error(), "eval: input hdr.") || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("reordering FixInputs: error %v, want one naming input hdr", err)
	}
}

// TestDuplicateParamsRejected: a control with two parameters named x is
// refused on both engines with an error naming x, rather than run with one
// parameter shadowing the other. The base checker rejects such a control,
// so only a direct caller of the harness can hand it one.
func TestDuplicateParamsRejected(t *testing.T) {
	prog := parser.MustParse("dup.p4", `
control C(inout <bit<4>, low> x, inout <bit<4>, high> x) {
    apply {
        x = x + 4w1;
    }
}
`)
	for _, interp := range []bool{false, true} {
		e := &ni.Experiment{Prog: prog, Lat: lattice.TwoPoint(), Interp: interp}
		vs, ran, err := e.RunN(4, 1)
		if err == nil || !strings.Contains(err.Error(), `"x"`) || ran != 0 || len(vs) != 0 {
			t.Fatalf("interp=%v: %d trials, %d violations, error %v; want no trials and an error naming x", interp, ran, len(vs), err)
		}
	}
}

// TestClearedControlPlaneMatchesFresh: an experiment whose control plane
// is cleared after a round runs the next round exactly as a fresh
// experiment with none would — same witnesses, and the same count of
// applies that met an empty table — not on the control plane it held.
func TestClearedControlPlaneMatchesFresh(t *testing.T) {
	for _, p := range progs.All() {
		prog := parser.MustParse(p.FileName(progs.Buggy), p.Source(progs.Buggy))
		cleared := &ni.Experiment{Prog: prog, Lat: p.Lattice(), CP: caseStudyCP(t, p.Name)}
		if _, err := cleared.Run(8, 3); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cleared.CP = nil
		fresh := &ni.Experiment{Prog: prog, Lat: p.Lattice()}
		got, gotErr := cleared.Run(8, 5)
		want, wantErr := fresh.Run(8, 5)
		if fmt.Sprint(got, gotErr) != fmt.Sprint(want, wantErr) {
			t.Errorf("%s: cleared control plane gives %v %v, fresh %v %v", p.Name, got, gotErr, want, wantErr)
		}
		gotM, _ := cleared.Machines(cleared.Engine())
		wantM, _ := fresh.Machines(fresh.Engine())
		if g, w := gotM.EmptyTableApplies(), wantM.EmptyTableApplies(); g != w {
			t.Errorf("%s: cleared control plane met %d empty tables, fresh %d", p.Name, g, w)
		}
	}
}
