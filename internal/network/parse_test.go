package network

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"n=4: [1,3][2,4][1,2][3,4]",
		"n=2:",
		"n=6: [1,2]",
		"n=3: [1,2][2,3][1,2]",
	}
	for _, s := range cases {
		w, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		again, err := Parse(w.Format())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", w.Format(), err)
		}
		if again.N != w.N || again.Size() != w.Size() {
			t.Errorf("round trip changed %q", s)
		}
		for i := range w.Comps {
			if w.Comps[i] != again.Comps[i] {
				t.Errorf("comparator %d changed in round trip of %q", i, s)
			}
		}
	}
}

func TestParseInferredN(t *testing.T) {
	w, err := Parse("[1,3][2,4]")
	if err != nil {
		t.Fatal(err)
	}
	if w.N != 4 {
		t.Errorf("inferred n = %d, want 4", w.N)
	}
}

func TestParseWhitespace(t *testing.T) {
	w, err := Parse("  n=4:  [1,3]  [2,4] ")
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 2 {
		t.Errorf("size %d", w.Size())
	}
	w2, err := Parse("[ 1 , 3 ]")
	if err != nil {
		t.Fatal(err)
	}
	if w2.Comps[0] != (Comparator{A: 0, B: 2}) {
		t.Error("inner whitespace not handled")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ in, msg string }{
		{"n=4 [1,2]", `network: missing ':' after n= prefix in "n=4 [1,2]"`},
		{"n=x: [1,2]", `network: bad line count in "n=x: [1,2]": strconv.Atoi: parsing "x": invalid syntax`},
		{"n=-3: [1,2][2,3]", `network: negative line count -3 in "n=-3: [1,2][2,3]"`},
		{"n=4: [2,1]", "network: nonstandard comparator [2,1] (need a < b)"},
		{"n=4: [1,1]", "network: nonstandard comparator [1,1] (need a < b)"},
		{"n=4: [0,2]", "network: lines are 1-based, got [0,2]"},
		{"n=2: [1,3]", "network: comparator 0 ([1,3]) invalid on 2 lines"},
		{"n=4: [1,2", `network: unterminated comparator in "[1,2"`},
		{"n=4: [1]", `network: comparator "1" must have two lines`},
		{"n=4: [1,2,3]", `network: comparator "1,2,3" must have two lines`},
		{"n=4: (1,2)", `network: expected '[' at "(1,2)"`},
		{"n=4: [a,b]", `network: bad line "a": strconv.Atoi: parsing "a": invalid syntax`},
		{"n=4: [1, x]", `network: bad line " x": strconv.Atoi: parsing "x": invalid syntax`},
		{"[1,99999999999999999999]", `network: bad line "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
	}
	for _, tc := range bad {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) should fail", tc.in)
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("Parse(%q) error:\n got %s\nwant %s", tc.in, err, tc.msg)
		}
	}
}

// TestParseNegativeLineCount pins the one behaviour Parse changed from
// parseReference: an explicit negative count used to fall through to
// "infer n", so "n=-3: [1,2][2,3]" parsed as a 3-line network.
func TestParseNegativeLineCount(t *testing.T) {
	for _, s := range []string{"n=-3: [1,2][2,3]", "n=-1:", "n= -7 : [1,2]"} {
		if w, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %s, want a negative-line-count error", s, w.Format())
		}
	}
}

// parseReference is the text parser as it stood before Parse became a
// single allocation-light scan, kept as FuzzParse's oracle: Parse must
// return the same network or the byte-identical error. Its one change
// is the negative line count check, which both parsers share.
func parseReference(s string) (*Network, error) {
	s = strings.TrimSpace(s)
	n := -1
	if strings.HasPrefix(s, "n=") {
		colon := strings.Index(s, ":")
		if colon < 0 {
			return nil, fmt.Errorf("network: missing ':' after n= prefix in %q", s)
		}
		v, err := strconv.Atoi(strings.TrimSpace(s[2:colon]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line count in %q: %v", s, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("network: negative line count %d in %q", v, s)
		}
		n = v
		s = strings.TrimSpace(s[colon+1:])
	}
	var comps []Comparator
	maxLine := 0
	for len(s) > 0 {
		if s[0] != '[' {
			return nil, fmt.Errorf("network: expected '[' at %q", s)
		}
		close := strings.IndexByte(s, ']')
		if close < 0 {
			return nil, fmt.Errorf("network: unterminated comparator in %q", s)
		}
		body := s[1:close]
		parts := strings.Split(body, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("network: comparator %q must have two lines", body)
		}
		a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", parts[0], err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", parts[1], err)
		}
		if a < 1 || b < 1 {
			return nil, fmt.Errorf("network: lines are 1-based, got [%d,%d]", a, b)
		}
		if a >= b {
			return nil, fmt.Errorf("network: nonstandard comparator [%d,%d] (need a < b)", a, b)
		}
		comps = append(comps, Comparator{A: a - 1, B: b - 1})
		if b > maxLine {
			maxLine = b
		}
		s = strings.TrimSpace(s[close+1:])
	}
	if n < 0 {
		n = maxLine
	}
	w := &Network{N: n, Comps: comps}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func TestStringEmpty(t *testing.T) {
	if got := New(3).String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	if got := New(3).Format(); got != "n=3:" {
		t.Errorf("empty Format = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		w := Random(2+rng.Intn(10), rng.Intn(20), rng)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Network
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.N != w.N || back.Size() != w.Size() {
			t.Fatalf("JSON round trip changed shape: %s -> %s", w.Format(), back.Format())
		}
		for i := range w.Comps {
			if w.Comps[i] != back.Comps[i] {
				t.Fatalf("comparator %d changed", i)
			}
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var w Network
	if err := json.Unmarshal([]byte(`{"lines":2,"comparators":[[2,1]]}`), &w); err == nil {
		t.Error("nonstandard comparator should fail")
	}
	if err := json.Unmarshal([]byte(`{"lines":2,"comparators":[[1,5]]}`), &w); err == nil {
		t.Error("out-of-range comparator should fail")
	}
}

func TestDiagramShape(t *testing.T) {
	d := fig1().Diagram()
	lines := strings.Split(strings.TrimRight(d, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("diagram has %d rows, want 4:\n%s", len(lines), d)
	}
	// All rows equal width.
	w := len([]rune(lines[0]))
	for _, l := range lines {
		if len([]rune(l)) != w {
			t.Errorf("ragged diagram:\n%s", d)
		}
	}
	// Endpoint count: 2 per comparator.
	if got := strings.Count(d, "●"); got != 8 {
		t.Errorf("diagram has %d endpoints, want 8:\n%s", got, d)
	}
}

func TestDiagramEmpty(t *testing.T) {
	d := New(2).Diagram()
	if !strings.Contains(d, "1 ──") || !strings.Contains(d, "2 ──") {
		t.Errorf("empty diagram malformed:\n%s", d)
	}
}

func TestTraceReproducesPaperWalkthrough(t *testing.T) {
	tr := fig1().Trace([]int{4, 1, 3, 2})
	if !strings.Contains(tr, "input   [4 1 3 2]") {
		t.Errorf("trace missing input row:\n%s", tr)
	}
	if !strings.Contains(tr, "output  [1 3 2 4]") {
		t.Errorf("trace must end at (1 3 2 4) per Fig. 1:\n%s", tr)
	}
	if got := strings.Count(tr, "(exchange)"); got != 3 {
		t.Errorf("trace shows %d exchanges, want 3:\n%s", got, tr)
	}
}
