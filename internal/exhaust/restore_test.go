package exhaust_test

import (
	"testing"

	"repro/internal/exhaust"
	"repro/internal/ni"
)

// In-place restore: the sweep reuses one argument tree per parameter and
// restores every container slot before each run. Each program below
// writes into its inputs through a different kind of container slot, in a
// way that feeds back into its observable outputs: if a slot kept the
// previous run's value, the next assignment would run on mutated inputs
// and the secure programs would get a false witness. The expected
// counts and witnesses are those of a sweep that builds fresh trees.
var restoreCases = []struct {
	name    string
	src     string
	outcome ni.Outcome
	asg     uint64
	total   bool
	where   string // witness; empty for proved-secure
	a, b    string
}{
	{
		name: "record-field",
		src: `
struct meta_t { <bit<4>, low> lo; <bit<2>, high> hi; }
control C(inout meta_t m) {
    apply {
        m.lo = m.lo + 4w1;
        m.hi = m.hi + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 64, total: true,
	},
	{
		name: "record-field-leak",
		src: `
struct meta_t { <bit<4>, low> lo; <bit<2>, high> hi; }
control C(inout meta_t m) {
    apply {
        m.lo = m.lo + 4w1;
        m.hi = m.hi + 2w1;
        if (m.hi == 2w3) {
            m.lo = m.lo + 4w1;
        }
    }
}`,
		outcome: ni.ProvedInsecure, asg: 3, total: true,
		where: "m.lo", a: "4w1", b: "4w2",
	},
	{
		name: "header-field",
		src: `
header h_t { <bit<4>, low> lo; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr) {
    apply {
        hdr.h.lo = hdr.h.lo + 4w1;
        hdr.h.hi = hdr.h.hi ^ 2w3;
    }
}`,
		outcome: ni.ProvedSecure, asg: 64, total: true,
	},
	{
		name: "stack-const-index",
		src: `
header h_t { <bit<2>, low> arr[2]; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr) {
    apply {
        hdr.h.arr[0] = hdr.h.arr[0] + hdr.h.arr[1];
        hdr.h.arr[1] = hdr.h.arr[1] + 2w1;
        hdr.h.hi = hdr.h.hi + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 64, total: true,
	},
	{
		name: "stack-computed-index",
		src: `
header h_t { <bit<2>, low> arr[2]; <bit<1>, low> i; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr) {
    apply {
        hdr.h.arr[hdr.h.i] = hdr.h.arr[hdr.h.i] + 2w1;
        hdr.h.i = hdr.h.i + 1w1;
        hdr.h.hi = hdr.h.hi + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 128, total: true,
	},
	{
		name: "stack-computed-index-leak",
		src: `
header h_t { <bit<2>, low> arr[2]; <bit<1>, high> i; }
struct headers { h_t h; }
control C(inout headers hdr) {
    apply {
        hdr.h.arr[hdr.h.i] = hdr.h.arr[hdr.h.i] + 2w1;
    }
}`,
		outcome: ni.ProvedInsecure, asg: 2, total: true,
		where: "hdr.h.arr[0]", a: "2w1", b: "2w0",
	},
	{
		name: "whole-struct-into-field",
		src: `
struct pair_t { <bit<2>, low> a; <bit<2>, high> b; }
struct meta_t { pair_t p; pair_t q; }
control C(inout meta_t m) {
    apply {
        m.p.a = m.p.a + m.q.a;
        m.q = m.p;
        m.q.b = m.q.b + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 256, total: true,
	},
	{
		name: "whole-header-into-field",
		src: `
header h_t { <bit<2>, low> x; <bit<2>, high> s; }
struct headers { h_t a; h_t b; }
control C(inout headers hdr) {
    apply {
        hdr.a.x = hdr.a.x + hdr.b.x;
        hdr.b = hdr.a;
        hdr.b.s = hdr.b.s + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 256, total: true,
	},
	{
		name: "whole-nested-struct",
		src: `
struct inner_t { <bit<2>, low> a; <bit<1>, high> s; }
struct mid_t { inner_t i; <bit<2>, low> b; }
struct meta_t { mid_t x; mid_t y; }
control C(inout meta_t m) {
    apply {
        m.x.i.a = m.x.i.a + m.y.i.a + m.y.b;
        m.y = m.x;
        m.y.i.s = m.y.i.s + 1w1;
        m.x.i = m.y.i;
    }
}`,
		outcome: ni.ProvedSecure, asg: 1024, total: true,
	},
	{
		name: "whole-stack-element",
		src: `
header pair_t { <bit<2>, low> a; <bit<1>, high> s; }
struct headers { pair_t ps[2]; }
control C(inout headers hdr) {
    apply {
        hdr.ps[0].a = hdr.ps[0].a + hdr.ps[1].a;
        hdr.ps[1] = hdr.ps[0];
        hdr.ps[1].s = hdr.ps[1].s + 1w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 64, total: true,
	},
	{
		name: "mark-to-drop",
		src: `
header h_t { <bit<2>, low> lo; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        standard_metadata.priority = standard_metadata.priority + 3w1;
        mark_to_drop(standard_metadata);
        hdr.h.lo = hdr.h.lo + 2w1;
        hdr.h.hi = hdr.h.hi + 2w1;
    }
}`,
		outcome: ni.ProvedSecure, asg: 64, total: false,
	},
	{
		name: "mark-to-drop-leak",
		src: `
header h_t { <bit<2>, low> lo; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        if (hdr.h.hi == 2w2) {
            mark_to_drop(standard_metadata);
        }
    }
}`,
		outcome: ni.ProvedInsecure, asg: 3, total: false,
		where: "standard_metadata.egress_spec", a: "9w470", b: "9w511",
	},
	{
		name: "action-out-inout",
		src: `
header h_t { <bit<4>, low> lo; <bit<4>, low> copy; <bit<2>, high> hi; }
struct headers { h_t h; }
control C(inout headers hdr) {
    action bump(inout <bit<4>, low> x, out <bit<4>, low> y) {
        y = x;
        x = x + 4w1;
    }
    action spin(inout <bit<2>, high> s) {
        s = s + 2w1;
    }
    apply {
        bump(hdr.h.lo, hdr.h.copy);
        spin(hdr.h.hi);
    }
}`,
		outcome: ni.ProvedSecure, asg: 1024, total: true,
	},
}

func TestInPlaceRestore(t *testing.T) {
	for _, c := range restoreCases {
		t.Run(c.name, func(t *testing.T) {
			res := check(t, c.src, exhaust.Oracle{})
			if res.Outcome != c.outcome || res.Assignments != c.asg || res.Total != c.total {
				t.Fatalf("outcome=%v assignments=%d total=%v (reason %q), want %v %d %v",
					res.Outcome, res.Assignments, res.Total, res.Reason, c.outcome, c.asg, c.total)
			}
			if c.where == "" {
				if len(res.Violations) != 0 {
					t.Fatalf("false witness %+v: a container slot kept the previous run's value", res.Violations[0])
				}
				return
			}
			if len(res.Violations) != 1 {
				t.Fatalf("got %d witnesses, want 1", len(res.Violations))
			}
			v := res.Violations[0]
			if v.Where != c.where || v.A != c.a || v.B != c.b {
				t.Errorf("witness %s: %s vs %s, want %s: %s vs %s", v.Where, v.A, v.B, c.where, c.a, c.b)
			}
		})
	}
}
