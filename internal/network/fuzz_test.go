package network

import (
	"testing"
)

// FuzzParse exercises the text-format parser: no input may panic, it
// must agree with parseReference (the same network, or the
// byte-identical error), and every accepted network must validate and
// round-trip through its Format rendering.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"n=4: [1,3][2,4][1,2][3,4]",
		"n=2:",
		"[1,2]",
		"n=0:",
		"n=4 [1,2]",
		"n=x: [1,2]",
		"[2,1]",
		"[1,2][",
		"[1]",
		"[1,2,3]",
		"[ 1 , 64 ]",
		"n=100000000: [1,2]",
		"n=-3: [1,2]",
		"n=+4: [1,+2]",
		"n=4:[1,2]\u00a0[3,4]",
		"[1,2][a]",
		"[1,2]x",
		"n=: [1,2]",
		"n=4: [1,,2]",
		"n=4: [1,2]]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := Parse(s)
		ref, refErr := parseReference(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) error %v, reference error %v", s, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("Parse(%q) error text differs:\n got %s\nwant %s", s, err, refErr)
			}
			return
		}
		if w.N != ref.N || len(w.Comps) != len(ref.Comps) {
			t.Fatalf("Parse(%q) = %s, reference %s", s, w.Format(), ref.Format())
		}
		for i := range w.Comps {
			if w.Comps[i] != ref.Comps[i] {
				t.Fatalf("Parse(%q) comparator %d = %v, reference %v", s, i, w.Comps[i], ref.Comps[i])
			}
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted invalid network: %v", s, err)
		}
		again, err := Parse(w.Format())
		if err != nil {
			t.Fatalf("Format(%q) does not re-parse: %v", s, err)
		}
		if again.N != w.N || again.Size() != w.Size() {
			t.Fatalf("round trip changed shape for %q", s)
		}
		for i := range w.Comps {
			if w.Comps[i] != again.Comps[i] {
				t.Fatalf("round trip changed comparator %d for %q", i, s)
			}
		}
	})
}

// FuzzJSON exercises the JSON decoder the same way.
func FuzzJSON(f *testing.F) {
	seeds := []string{
		`{"lines":4,"comparators":[[1,3],[2,4]]}`,
		`{"lines":2,"comparators":[]}`,
		`{"lines":2,"comparators":[[2,1]]}`,
		`{"lines":-1}`,
		`{}`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Network
		if err := w.UnmarshalJSON(data); err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("UnmarshalJSON accepted invalid network from %q: %v", data, err)
		}
	})
}
