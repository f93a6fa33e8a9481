package canon

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// applyGeneralized is the reference evaluator for generalized
// comparator sequences: pair (i,j) places min on line i, max on j.
func applyGeneralized(n int, pairs [][2]int, v bitvec.Vec) bitvec.Vec {
	bits := v.Bits
	for _, p := range pairs {
		i, j := uint(p[0]), uint(p[1])
		lo := (bits >> i) & (bits >> j) & 1
		hi := ((bits >> i) | (bits >> j)) & 1
		bits = bits&^(1<<i|1<<j) | lo<<i | hi<<j
	}
	return bitvec.Vec{N: n, Bits: bits}
}

func sameFunction(t *testing.T, a, b *network.Network) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("line counts differ: %d vs %d", a.N, b.N)
	}
	for x := uint64(0); x < uint64(bitvec.Universe(a.N)); x++ {
		in := bitvec.New(a.N, x)
		if got, want := b.ApplyVec(in), a.ApplyVec(in); got != want {
			t.Fatalf("outputs differ on %s: %s vs %s", in, got, want)
		}
	}
}

func TestNormalizePreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		w := network.Random(n, rng.Intn(20), rng)
		sameFunction(t, w, Normalize(w))
	}
}

func TestNormalizeFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		w := network.Random(2+rng.Intn(10), rng.Intn(24), rng)
		once := Normalize(w)
		twice := Normalize(once)
		if once.Format() != twice.Format() {
			t.Fatalf("not a fixpoint:\n once: %s\ntwice: %s", once.Format(), twice.Format())
		}
	}
}

// TestDigestStableAcrossLayerReordering is the satellite contract:
// shuffling comparators WITHIN a layer never changes the digest.
func TestDigestStableAcrossLayerReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(8)
		w := network.Random(n, 4+rng.Intn(20), rng)
		want := DigestString(w)
		layers := w.Layers()
		for shuffle := 0; shuffle < 5; shuffle++ {
			v := network.New(n)
			for _, layer := range layers {
				layer = append([]network.Comparator(nil), layer...)
				rng.Shuffle(len(layer), func(i, j int) { layer[i], layer[j] = layer[j], layer[i] })
				v.Add(layer...)
			}
			if got := DigestString(v); got != want {
				t.Fatalf("digest changed under within-layer shuffle:\n  %s -> %s\n  %s -> %s",
					w.Format(), want, v.Format(), got)
			}
			sameFunction(t, w, v)
		}
	}
}

// TestNormalizeRejectsInvalidComparator: a hand-built network whose
// comparator leaves the line range panics with network.Add's message
// rather than an index-out-of-range crash.
func TestNormalizeRejectsInvalidComparator(t *testing.T) {
	w := &network.Network{N: 4, Comps: []network.Comparator{{A: 0, B: 1}, {A: 2, B: 7}}}
	const want = "network: invalid comparator [3,8] on 4 lines"
	defer func() {
		if r := recover(); r != want {
			t.Errorf("Normalize panic = %v, want %q", r, want)
		}
	}()
	Normalize(w)
}

func TestDigestDistinguishesNetworks(t *testing.T) {
	a := network.MustParse("n=4: [1,3][2,4][1,2][3,4]")
	b := network.MustParse("n=4: [1,3][2,4][1,2]")
	c := network.MustParse("n=5: [1,3][2,4][1,2][3,4]")
	if DigestString(a) == DigestString(b) {
		t.Error("digest ignores a dropped comparator")
	}
	if DigestString(a) == DigestString(c) {
		t.Error("digest ignores the line count")
	}
	if len(DigestString(a)) != 64 {
		t.Errorf("digest hex length %d, want 64", len(DigestString(a)))
	}
}

func TestUntangleStandardInputIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		w := network.Random(2+rng.Intn(8), rng.Intn(16), rng)
		pairs := make([][2]int, len(w.Comps))
		for i, c := range w.Comps {
			pairs[i] = [2]int{c.A, c.B}
		}
		s, r, err := Untangle(w.N, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !IsIdentity(r) {
			t.Fatalf("standard network untangled to relabeling %v", r)
		}
		if s.Format() != w.Format() {
			t.Fatalf("standard network rewritten: %s vs %s", s.Format(), w.Format())
		}
	}
}

// TestUntangleInvariant checks G(x)[l] == S(x)[r[l]] on random
// generalized circuits over the full binary universe.
func TestUntangleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		pairs := make([][2]int, rng.Intn(14))
		for i := range pairs {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			pairs[i] = [2]int{a, b}
		}
		s, r, err := Untangle(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < uint64(bitvec.Universe(n)); x++ {
			in := bitvec.New(n, x)
			g := applyGeneralized(n, pairs, in)
			sv := s.ApplyVec(in)
			for l := 0; l < n; l++ {
				if g.Bits>>uint(l)&1 != sv.Bits>>uint(r[l])&1 {
					t.Fatalf("invariant broken: n=%d pairs=%v r=%v input=%s: G=%s S=%s",
						n, pairs, r, in, g, sv)
				}
			}
		}
	}
}

func TestUntangleRejectsBadPairs(t *testing.T) {
	for _, pairs := range [][][2]int{
		{{0, 0}},
		{{-1, 1}},
		{{0, 4}},
		{{4, 0}},
	} {
		if _, _, err := Untangle(4, pairs); err == nil {
			t.Errorf("Untangle(4, %v) accepted an invalid pair", pairs)
		}
	}
}

// TestUntangledSorterStaysSorter: a tangled writing of a sorter
// untangles to a sorter with the identity relabeling.
func TestUntangledSorterStaysSorter(t *testing.T) {
	// Figure 1's 4-line sorter, written with every comparator flipped
	// max-on-top: (3,1)(4,2)(2,1)(4,3)(3,2) is the reverse-sorter; its
	// untangling must relabel and the residual must NOT be identity.
	tangled := [][2]int{{2, 0}, {3, 1}, {1, 0}, {3, 2}, {2, 1}}
	s, r, err := Untangle(4, tangled)
	if err != nil {
		t.Fatal(err)
	}
	if IsIdentity(r) {
		t.Fatal("a max-on-top circuit cannot be equivalent to a standard network")
	}
	// The invariant still makes S a sorter up to the fixed relabeling:
	// G reverse-sorts, so S(x)[r[l]] descending in l means S sorts.
	for x := uint64(0); x < uint64(bitvec.Universe(4)); x++ {
		if !s.ApplyVec(bitvec.New(4, x)).IsSorted() {
			t.Fatalf("untangled reverse-sorter does not sort %s", bitvec.New(4, x))
		}
	}
}
