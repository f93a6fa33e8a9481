package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/comb"
	"sortnets/internal/gen"
)

func TestPercentileRefusesWithoutTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990 of 1000: ten samples beyond
		{999, 0.99, false}, // nine beyond
		{100, 0.99, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		v, err := percentile(xs, tc.q)
		if tc.ok && err != nil {
			t.Errorf("n=%d q=%v: %v", tc.n, tc.q, err)
		}
		if !tc.ok && !errors.Is(err, errFewSamples) {
			t.Errorf("n=%d q=%v: got %v, %v; want errFewSamples", tc.n, tc.q, v, err)
		}
	}
	xs := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if v, err := percentile(xs, 0.5); err != nil || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSeedGivesSameSequences(t *testing.T) {
	zipf := func(seed int64) ([]zipfNet, []int32) {
		rng := rand.New(rand.NewSource(seed))
		return zipfPopulation(rng, clusterLines, 256), zipfSequence(rng, clusterZipfS, 256, 4096)
	}
	p1, s1 := zipf(7)
	p2, s2 := zipf(7)
	p3, s3 := zipf(8)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) {
		t.Error("one seed gave two different Zipf populations or sequences")
	}
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(s1, s3) {
		t.Error("two seeds gave the same Zipf population or sequence")
	}

	engine := func(seed int64) []engineItem {
		rng := rand.New(rand.NewSource(seed))
		seq, err := engineSequence(rng, engineKinds(rng), 2048)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	if !reflect.DeepEqual(engine(7), engine(7)) || reflect.DeepEqual(engine(7), engine(8)) {
		t.Error("engine-heavy sequence is not a function of the seed")
	}
	if !reflect.DeepEqual(randomNets(7, 512), randomNets(7, 512)) || reflect.DeepEqual(randomNets(7, 512), randomNets(8, 512)) {
		t.Error("batch-miss population is not a function of the seed")
	}

	// The checksum over the verdicts of one seed's requests repeats.
	sum := func(seed int64) uint64 {
		pop, seq := zipf(seed)
		sess := sortnets.NewSession(sortnets.WithWorkers(1))
		defer sess.Close()
		var total uint64
		var buf []byte
		for _, k := range seq[:300] {
			v, err := sess.Do(context.Background(), sortnets.Request{Network: pop[k].text})
			if err != nil {
				t.Fatal(err)
			}
			var h uint64
			buf, h = verdictHash(buf, v)
			total += h
		}
		return total
	}
	if a, b, c := sum(7), sum(7), sum(8); a != b || a == c {
		t.Errorf("checksums %x, %x (same seed), %x (other seed)", a, b, c)
	}
}

func TestEngineFamiliesAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fam := newTrailing(rng, sorterBase(8), 2)
	seen := map[string]bool{}
	for i := int64(0); i < fam.capacity(); i++ {
		s := sortnets.NetworkDigest(fam.net(i))
		if seen[s] {
			t.Fatalf("member %d repeats a digest", i)
		}
		seen[s] = true
	}
}

func verdictFor(t *testing.T, req sortnets.Request) *sortnets.Verdict {
	t.Helper()
	sess := sortnets.NewSession(sortnets.WithWorkers(1))
	defer sess.Close()
	v, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestOracleRejectsTamperedVerdicts(t *testing.T) {
	sorter := newTrailing(rand.New(rand.NewSource(1)), sorterBase(8), 2).net(5).Format()
	sigma := bitvec.MustFromString("01101001")
	hsigma := almostSorter(sigma).Format()

	good := verdictFor(t, sortnets.Request{Network: sorter})
	if err := checkSorterVerdict(good, sorter, 8, expect{holds: true}); err != nil {
		t.Fatalf("a true verdict was rejected: %v", err)
	}
	if err := checkRandomVerdict(good, sorter); err != nil {
		t.Fatalf("a true verdict was rejected: %v", err)
	}
	flipped := *good
	cv := *good.Check
	cv.Holds = false
	flipped.Check = &cv
	if checkSorterVerdict(&flipped, sorter, 8, expect{holds: true}) == nil || checkRandomVerdict(&flipped, sorter) == nil {
		t.Error("a flipped holds was accepted")
	}
	short := *good
	cs := *good.Check
	cs.TestsRun--
	short.Check = &cs
	if checkSorterVerdict(&short, sorter, 8, expect{holds: true}) == nil || checkRandomVerdict(&short, sorter) == nil {
		t.Error("a wrong testsRun was accepted")
	}

	bad := verdictFor(t, sortnets.Request{Network: hsigma})
	if err := checkSorterVerdict(bad, hsigma, 8, expect{sigma: sigma.String()}); err != nil {
		t.Fatalf("a true H_σ verdict was rejected: %v", err)
	}
	if err := checkRandomVerdict(bad, hsigma); err != nil {
		t.Fatalf("a true H_σ verdict was rejected: %v", err)
	}
	wrongCx := *bad
	cw := *bad.Check
	cw.Counterexample = "01101010"
	wrongCx.Check = &cw
	if checkSorterVerdict(&wrongCx, hsigma, 8, expect{sigma: sigma.String()}) == nil || checkRandomVerdict(&wrongCx, hsigma) == nil {
		t.Error("a wrong counterexample was accepted")
	}
	holds := *bad
	ch := *bad.Check
	ch.Holds, ch.Counterexample, ch.Output = true, "", ""
	ch.TestsRun = 247
	holds.Check = &ch
	if checkSorterVerdict(&holds, hsigma, 8, expect{sigma: sigma.String()}) == nil || checkRandomVerdict(&holds, hsigma) == nil {
		t.Error("H_σ reported as holding was accepted")
	}
	if checkSorterVerdict(good, hsigma, 8, expect{sigma: sigma.String()}) == nil {
		t.Error("a verdict for another network was accepted")
	}

	wide := sortnets.WideResult{Holds: true, TestsRun: 48 * 48}
	if err := checkWide(wide, comb.MergerBinaryTestSetSize(96)); err != nil {
		t.Errorf("a true wide verdict was rejected: %v", err)
	}
	wide.TestsRun--
	if checkWide(wide, comb.MergerBinaryTestSetSize(96)) == nil {
		t.Error("a wrong wide testsRun was accepted")
	}

	ms := verdictFor(t, sortnets.Request{Op: sortnets.OpMinset, Network: gen.Optimal(6).Format(), Exact: true})
	if err := checkMinset(ms, gen.Optimal(6).Format()); err != nil {
		t.Fatalf("a true minset was rejected: %v", err)
	}
	dropped := *ms
	mv := *ms.Minset
	mv.Tests = mv.Tests[1:]
	mv.Size--
	dropped.Minset = &mv
	if checkMinset(&dropped, gen.Optimal(6).Format()) == nil {
		t.Error("an exact minset missing a test was accepted")
	}
}

func TestInOrderCycleNeverHits(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full batch-miss population through a Session")
	}
	sess := sortnets.NewSession(sortnets.WithWorkers(2))
	defer sess.Close()
	nets := randomNets(1, batchPopulation)
	reqs := make([]sortnets.Request, batchSize)
	// One full cycle and a quarter: the second pass revisits inputs
	// the caches saw one population ago.
	for base := 0; base < batchPopulation+batchPopulation/4; base += batchSize {
		for j := range reqs {
			reqs[j] = sortnets.Request{Network: nets[(base+j)%batchPopulation]}
		}
		if _, err := sess.DoBatch(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
	}
	var c counters
	c.addSession(sess.Stats())
	if c.hits != 0 || c.requests == 0 {
		t.Errorf("%d hits in %d requests; an in-order cycle must miss every time", c.hits, c.requests)
	}
}

func TestSummarizeScalesByHostSpeed(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 2
	}
	// Three windows of the same work: at reference speed, on a host
	// running at half speed (everything took twice as long), and on
	// one running 25% faster.
	p := &phase{windows: []window{
		{seconds: 1, verdicts: 1000, cpu: time.Second, mallocs: 5000, lat: lat, speed: 1},
		{seconds: 2, verdicts: 1000, cpu: 2 * time.Second, mallocs: 5000, lat: scaled(lat, 2), speed: 0.5},
		{seconds: 0.8, verdicts: 1000, cpu: 800 * time.Millisecond, mallocs: 5000, lat: scaled(lat, 0.8), speed: 1.25},
	}}
	s, err := summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	if !near(s.throughput, 1000) || !near(s.cpuPerV, 1000) || !near(s.p50, 2) || !near(s.p99, 2) || !near(s.allocsPerV, 5) {
		t.Errorf("scaled summary %+v; want 1000 verdicts/s, 1000 µs, 2 ms, 2 ms, 5 allocs in every window", s)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCalibratorMeasuresAPositiveSpeed(t *testing.T) {
	c := newCalibrator(2, 0.5)
	if s := c.speed(20 * time.Millisecond); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("speed %v; want a finite positive ratio", s)
	}
}
