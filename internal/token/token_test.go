package token

import (
	"fmt"
	"strings"
	"testing"
)

// TestLookupIdentKeywords checks every keyword spelling maps to its kind
// and that near-misses (every proper prefix, a changed case, a suffix or a
// leading character) stay identifiers.
func TestLookupIdentKeywords(t *testing.T) {
	spellings := map[string]Kind{"true": TRUE, "false": FALSE}
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		spellings[k.String()] = k
	}
	if len(spellings) != int(keywordEnd-keywordBeg-1)+2 {
		t.Fatalf("keyword spellings collide: %v", spellings)
	}
	for s, want := range spellings {
		if got := LookupIdent(s); got != want {
			t.Errorf("LookupIdent(%q) = %v, want %v", s, got, want)
		}
		misses := []string{strings.ToUpper(s), strings.ToUpper(s[:1]) + s[1:], s + "_", s + "s", s + "0", "_" + s}
		for i := 1; i < len(s); i++ {
			misses = append(misses, s[:i])
		}
		for _, m := range misses {
			if _, isKeyword := spellings[m]; isKeyword {
				continue // "in" is a prefix of "inout" and "int"
			}
			if got := LookupIdent(m); got != IDENT {
				t.Errorf("LookupIdent(%q) = %v, want IDENT", m, got)
			}
		}
	}
	for _, s := range []string{"", "x", "hdr", "NoAction", "apply_", "matchkind", "registers"} {
		if got := LookupIdent(s); got != IDENT {
			t.Errorf("LookupIdent(%q) = %v, want IDENT", s, got)
		}
	}
}

// TestKindString pins the spellings diagnostics and the printer use,
// including the fallback for kinds without a name.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		IDENT: "identifier", SHR: ">>", NEQ: "!=", MATCH_KIND: "match_kind",
		REGISTER: "register", Kind(-1): "Kind(-1)",
		keywordBeg: fmt.Sprintf("Kind(%d)", int(keywordBeg)), keywordEnd: fmt.Sprintf("Kind(%d)", int(keywordEnd)),
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
