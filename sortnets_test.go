package sortnets

import (
	"math/rand"
	"testing"

	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// Integration tests across the whole stack through the public facade.

func TestFacadeQuickstartFlow(t *testing.T) {
	w := BatcherSorter(8)
	if r := CheckSorter(w); !r.Holds {
		t.Fatalf("Batcher sorter rejected: %s", r)
	}
	sigma := MustVec("0110")
	h := MustAlmostSorter(sigma)
	r := CheckSorter(h)
	if r.Holds {
		t.Fatal("almost-sorter passed")
	}
	if r.Counterexample != sigma {
		t.Fatalf("counterexample %s, want %s", r.Counterexample, sigma)
	}
}

func TestFacadeParseAndCheck(t *testing.T) {
	w, err := ParseNetwork("n=4: [1,3][2,4][1,2][3,4]")
	if err != nil {
		t.Fatal(err)
	}
	if CheckSorter(w).Holds {
		t.Error("the Fig. 1 network is not a sorter")
	}
	if _, err := ParseNetwork("n=4: [4,1]"); err == nil {
		t.Error("nonstandard comparator accepted")
	}
	if _, err := ParseVec("012"); err == nil {
		t.Error("bad vector accepted")
	}
	if _, err := ParsePerm("(1 1)"); err == nil {
		t.Error("bad permutation accepted")
	}
}

func TestFacadeCanonicalDigest(t *testing.T) {
	a := MustParseNetwork("n=4: [1,3][2,4][1,2][3,4]")
	b := MustParseNetwork("n=4: [2,4][1,3][1,2][3,4]") // first layer interleaved
	if NetworkDigest(a) != NetworkDigest(b) {
		t.Error("within-layer reordering changed the digest")
	}
	c := CanonicalNetwork(a)
	if NetworkDigest(c) != NetworkDigest(a) {
		t.Error("canonicalization changed the digest")
	}
	for x := uint64(0); x < 16; x++ {
		in := Vec{N: 4, Bits: x}
		if c.ApplyVec(in) != a.ApplyVec(in) {
			t.Fatalf("canonical form diverges on %s", in)
		}
	}
}

func TestFacadeCanonicalRejectsInvalidComparator(t *testing.T) {
	w := &Network{N: 3, Comps: []Comparator{{A: 1, B: 3}}}
	const want = "network: invalid comparator [2,4] on 3 lines"
	defer func() {
		if r := recover(); r != want {
			t.Errorf("CanonicalNetwork panic = %v, want %q", r, want)
		}
	}()
	CanonicalNetwork(w)
}

func TestFacadeSelectorAndMerger(t *testing.T) {
	if r := CheckSelector(SelectionNetwork(8, 3), 3); !r.Holds {
		t.Errorf("selection network rejected: %s", r)
	}
	if r := CheckMerger(BatcherMerger(10)); !r.Holds {
		t.Errorf("merger rejected: %s", r)
	}
	if CheckMerger(NewNetwork(6)).Holds {
		t.Error("empty network accepted as merger")
	}
	// A merger is not a sorter; the sorter test set must catch it.
	if CheckSorter(BatcherMerger(8)).Holds {
		t.Error("merger accepted as sorter")
	}
}

func TestFacadeTestSetSizes(t *testing.T) {
	if SorterTestSetSize(10) != "1013" {
		t.Errorf("sorter size: %s", SorterTestSetSize(10))
	}
	if SorterPermTestSetSize(4) != "5" {
		t.Errorf("perm size: %s", SorterPermTestSetSize(4))
	}
	if SelectorTestSetSize(4, 2) != "8" {
		t.Errorf("selector size: %s", SelectorTestSetSize(4, 2))
	}
	if MergerTestSetSize(8) != "16" {
		t.Errorf("merger size: %s", MergerTestSetSize(8))
	}
	// Exact sizes scale beyond enumerable n.
	if len(SorterTestSetSize(100)) < 30 {
		t.Error("big-n size should be a 31-digit number")
	}
}

func TestFacadePermTests(t *testing.T) {
	w := OptimalSorter(6)
	if w == nil {
		t.Fatal("no optimal 6-sorter")
	}
	if r := CheckPerms(w, verify.Sorter{N: 6}); !r.Holds {
		t.Fatalf("perm tests rejected real sorter: %s", r)
	}
	if len(SorterPermTests(6)) != 19 {
		t.Errorf("C(6,3)-1 = 19 perms expected")
	}
	if len(MergerPermTests(8)) != 4 {
		t.Error("merger perm tests should be n/2")
	}
	if len(SelectorPermTests(8, 2)) != 27 {
		t.Error("C(8,2)-1 = 27 selector perms expected")
	}
}

func TestFacadeVerdictAgreesWithGroundTruthEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		w := network.Random(n, rng.Intn(n*n), rng)
		p := verify.Sorter{N: n}
		if Check(w, p).Holds != GroundTruth(w, p).Holds {
			t.Fatalf("facade verdict mismatch for %s", w)
		}
		if CheckParallel(w, p, 2).Holds != GroundTruth(w, p).Holds {
			t.Fatalf("parallel facade verdict mismatch for %s", w)
		}
	}
}

func TestFacadeFaultCoverage(t *testing.T) {
	rep := FaultCoverage(OptimalSorter(5))
	if rep.Faults == 0 || rep.Detected > rep.Detectable {
		t.Errorf("bad report %+v", rep)
	}
	if rep.Coverage() <= 0 {
		t.Error("zero coverage on a real sorter is impossible")
	}
}

func TestFacadeDetectionMatrix(t *testing.T) {
	w := OptimalSorter(5)
	m := DetectionMatrix(w)
	if got, want := m.Report(), FaultCoverage(w); got != want {
		t.Errorf("matrix report %+v disagrees with FaultCoverage %+v", got, want)
	}
	picks := MinimalDetectingTests(w)
	if len(picks) == 0 || len(picks) > len(m.Tests) {
		t.Fatalf("implausible minimal detecting set size %d", len(picks))
	}
	// The selection must preserve detected-fault coverage.
	remaining := m.Detected()
	for ti, tau := range m.Tests {
		for _, sel := range picks {
			if sel == tau {
				remaining.DiffWith(m.Sigs[ti])
			}
		}
	}
	if !remaining.Empty() {
		t.Errorf("selected tests miss faults %s", remaining)
	}
}

func TestFacadeExactSearchOpts(t *testing.T) {
	seq, err := ExactMinimumTestSetOpts(4, 2, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExactMinimumTestSetOpts(4, 2, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Size != par.Size || seq.Size != 11 {
		t.Errorf("sequential %d vs parallel %d, want 11", seq.Size, par.Size)
	}
	p, err := ExactMinimumPermTestSetOpts(4, 3, SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Exact || p.Size != 5 {
		t.Errorf("perm minimum %d (exact=%v), want 5", p.Size, p.Exact)
	}
}

func TestFacadeExactSearch(t *testing.T) {
	r, err := ExactMinimumTestSet(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 11 {
		t.Errorf("exact minimum for n=4: %d, want 11", r.Size)
	}
	r1, err := ExactMinimumTestSet(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Size != 4 {
		t.Errorf("height-1 minimum for n=5: %d, want 4", r1.Size)
	}
}

func TestFacadeChains(t *testing.T) {
	cs := SorterPermutationChains(6)
	if len(cs) != 20 {
		t.Errorf("C(6,3)=20 chains expected, got %d", len(cs))
	}
}

func TestFacadeCompiledEngine(t *testing.T) {
	w := BatcherSorter(10)
	prog := Compile(w)
	if prog.Size() != w.Size() || !prog.Pure() {
		t.Fatalf("compiled program has %d ops (pure=%v), want %d", prog.Size(), prog.Pure(), w.Size())
	}
	for _, workers := range []int{1, 2, 0} {
		eng := NewEngine(prog, workers)
		v := eng.Run(SorterTests(10), SortedJudge())
		if !v.Holds {
			t.Fatalf("workers=%d: compiled engine rejected a Batcher sorter", workers)
		}
		if workers == 1 && v.TestsRun != 1<<10-10-1 {
			t.Fatalf("engine ran %d tests, want the full minimal set", v.TestsRun)
		}
	}
	// A per-lane judge must agree with the word-parallel one.
	custom := NewEngine(prog, 1).Run(SorterTests(10),
		PerLaneJudge(func(in, out Vec) bool { return out.IsSorted() }))
	if !custom.Holds {
		t.Fatal("per-lane judge rejected a Batcher sorter")
	}
}

func TestFacadeCompileFault(t *testing.T) {
	w := BatcherSorter(6)
	fs := EnumerateFaults(w)
	p := CompileFault(w, fs[0])
	if p.Pure() {
		t.Error("bypass-fault program should not be pure")
	}
	// A bypassed comparator in a Batcher sorter must fail some input.
	found := false
	it := SorterTests(6)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if !p.Apply(v).IsSorted() {
			found = true
			break
		}
	}
	if !found {
		t.Error("bypassed comparator never visible on the minimal test set")
	}
}

func TestFacadeWideParallelChecks(t *testing.T) {
	m := BatcherMerger(128)
	r := CheckMergerWideParallel(m, 0)
	if !r.Holds || r.TestsRun != 4096 {
		t.Fatalf("pooled wide merger: %s", r)
	}
	if !CheckSelectorWideParallel(SelectionNetwork(96, 2), 2, 2).Holds {
		t.Error("pooled wide selector rejected")
	}
}

func TestFacadeWideCertification(t *testing.T) {
	m := BatcherMerger(128)
	r := CheckMergerWide(m)
	if !r.Holds || r.TestsRun != 4096 {
		t.Fatalf("wide merger: %s", r)
	}
	s := SelectionNetwork(96, 2)
	if !CheckSelectorWide(s, 2).Holds {
		t.Error("wide selector rejected")
	}
	if CheckSelectorWide(SelectionNetwork(96, 1), 2).Holds {
		t.Error("under-provisioned wide selector accepted")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	w := OptimalSorter(5).Clone().AddPair(3, 4) // pad with a dead comparator
	st := Analyze(w)
	if st.Redundant != 1 {
		t.Errorf("stats: %+v", st)
	}
	r := RemoveRedundant(w)
	if r.Size() != w.Size()-1 {
		t.Errorf("reduced size %d", r.Size())
	}
	if !Equivalent(w, r) {
		t.Error("reduction changed behaviour")
	}
}

func TestFacadeExactPermSearch(t *testing.T) {
	r, err := ExactMinimumPermTestSet(4, 3)
	if err != nil || !r.Exact || r.Size != 5 {
		t.Fatalf("perm search: %v %v", r, err)
	}
	r1, err := ExactMinimumPermTestSet(5, 1)
	if err != nil || !r1.Exact || r1.Size != 1 {
		t.Fatalf("de Bruijn search: %v %v", r1, err)
	}
}

func TestFacadeBuildersSortOrMerge(t *testing.T) {
	for n := 2; n <= 9; n++ {
		if !CheckSorter(BubbleSorter(n)).Holds {
			t.Errorf("bubble %d", n)
		}
		if !CheckSorter(OddEvenTranspositionSorter(n)).Holds {
			t.Errorf("OET %d", n)
		}
	}
	if OddEvenTranspositionSorter(7).Height() != 1 {
		t.Error("OET should be height-1")
	}
}
