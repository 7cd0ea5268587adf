package corpus

import (
	"strings"
	"testing"
)

// fp fingerprints src or fails the test.
func fp(t *testing.T, src string) string {
	t.Helper()
	f, err := FingerprintSource("fp.p4", src)
	if err != nil {
		t.Fatalf("fingerprint: %v\n%s", err, src)
	}
	return f
}

const fpBase = `header data_t {
    <bit<8>, low> lo0;
    <bit<8>, high> hi0;
    <bool, high> bhi;
}
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo0 = (hdr.d.hi0 + 8w41);
        }
    }
}
`

// TestFingerprintAbstraction: the skeleton must be blind to exactly the
// things a mutation varies freely — identifier spellings, literal
// values, bit widths, operator draws within a type-class — so findings
// that differ only in those collapse onto one fingerprint.
func TestFingerprintAbstraction(t *testing.T) {
	base := fp(t, fpBase)
	equal := map[string]string{
		"renamed identifiers": strings.NewReplacer(
			"lo0", "alpha", "hi0", "beta", "bhi", "gamma", "data_t", "pkt_t",
		).Replace(fpBase),
		"different literal": strings.Replace(fpBase, "8w41", "8w199", 1),
		"arith op swap":     strings.Replace(fpBase, "hdr.d.hi0 + 8w41", "hdr.d.hi0 ^ 8w41", 1),
		"different bit width": strings.NewReplacer(
			"bit<8>", "bit<16>", "8w41", "16w41",
		).Replace(fpBase),
	}
	for name, src := range equal {
		if got := fp(t, src); got != base {
			t.Errorf("%s changed the fingerprint: %s != %s", name, got, base)
		}
	}
}

// TestFingerprintSensitivity: the skeleton must keep what the verdict
// hinges on — statement structure, label positions and their lattice
// elements, operator type-classes.
func TestFingerprintSensitivity(t *testing.T) {
	base := fp(t, fpBase)
	different := map[string]string{
		"label moved":          strings.Replace(fpBase, "<bit<8>, low> lo0;", "<bit<8>, high> lo0;", 1),
		"label renamed":        strings.Replace(fpBase, "<bool, high> bhi;", "<bool, L3> bhi;", 1),
		"op class changed":     strings.Replace(fpBase, "hdr.d.hi0 + 8w41", "hdr.d.hi0 == 8w41", 1),
		"operand kind changed": strings.Replace(fpBase, "hdr.d.hi0 + 8w41", "hdr.d.hi0 + hdr.d.lo0", 1),
		"statement added":      strings.Replace(fpBase, "        }\n", "        }\n        hdr.d.lo0 = 8w1;\n", 1),
		"else branch added":    strings.Replace(fpBase, "        }\n", "        } else {\n            hdr.d.lo0 = (hdr.d.hi0 + 8w41);\n        }\n", 1),
		"field removed":        strings.Replace(fpBase, "    <bit<8>, high> hi0;\n", "", 1),
		"annotation dropped":   strings.Replace(fpBase, "<bool, high> bhi;", "bool bhi;", 1),
	}
	for name, src := range different {
		if got := fp(t, src); got == base {
			t.Errorf("%s did NOT change the fingerprint (%s)", name, got)
		}
	}
	// Sanity: fingerprints are stable across calls.
	if again := fp(t, fpBase); again != base {
		t.Errorf("fingerprint not deterministic: %s then %s", base, again)
	}
	if len(base) != FingerprintLen {
		t.Errorf("fingerprint %q has length %d, want %d", base, len(base), FingerprintLen)
	}
}

// TestFingerprintPCAnnotation: the @pc label is a label position too.
func TestFingerprintPCAnnotation(t *testing.T) {
	plain := `header h_t { <bit<8>, low> f; }
struct headers { h_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply { hdr.d.f = 8w1; }
}
`
	annotated := strings.Replace(plain, "control C", "@pc(high)\ncontrol C", 1)
	if fp(t, plain) == fp(t, annotated) {
		t.Error("@pc annotation does not reach the fingerprint")
	}
}
