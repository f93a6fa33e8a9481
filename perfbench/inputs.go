package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// Every input of every workload is a function of the workload seed.
// Distinctness is structural, not sampled: a network is a fixed base
// plus a set of trailing comparators drawn through a seeded bijection
// on combination ranks, so two request indices never name the same
// comparator multiset, hence never the same canonical digest.

// binom is C(n, k) for the small arguments used here.
func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}

// unrankCombo returns the k-combination of {0..items-1} with the
// given colexicographic rank, in increasing order.
func unrankCombo(rank int64, items, k int) []int {
	out := make([]int, k)
	c := items - 1
	for i := k; i >= 1; i-- {
		for binom(c, i) > rank {
			c--
		}
		out[i-1] = c
		rank -= binom(c, i)
		c--
	}
	return out
}

// bijection is x → (a·x + b) mod size with gcd(a, size) = 1: a seeded
// permutation of [0, size) that needs no table.
type bijection struct{ a, b, size int64 }

func newBijection(rng *rand.Rand, size int64) bijection {
	a := 1 + rng.Int63n(size)
	for gcd(a, size) != 1 {
		a++
	}
	return bijection{a: a % size, b: rng.Int63n(size), size: size}
}

func (f bijection) at(x int64) int64 {
	// a, x < size ≤ 2^31 here, so the product cannot overflow.
	return (f.a*(x%f.size) + f.b) % f.size
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pairs lists the standard comparators on n lines, (a, b) with a < b.
func pairs(n int) []network.Comparator {
	out := make([]network.Comparator, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, network.Comparator{A: a, B: b})
		}
	}
	return out
}

// trailing draws distinct comparator sets to append to one base
// network: the i-th draw is the combination whose rank is the seeded
// bijection's image of i.
type trailing struct {
	base  *network.Network
	pairs []network.Comparator
	k     int
	perm  bijection
}

func newTrailing(rng *rand.Rand, base *network.Network, k int) trailing {
	ps := pairs(base.N)
	return trailing{base: base, pairs: ps, k: k, perm: newBijection(rng, binom(len(ps), k))}
}

// capacity is how many distinct networks the family can produce.
func (t trailing) capacity() int64 { return t.perm.size }

// net returns the i-th network of the family: base followed by k
// trailing comparators. A standard comparator after a sorter (or
// merger, or selector) never changes a valid output, so the property
// still holds.
func (t trailing) net(i int64) *network.Network {
	w := network.New(t.base.N)
	w.Add(t.base.Comps...)
	for _, c := range unrankCombo(t.perm.at(i), len(t.pairs), t.k) {
		w.Add(t.pairs[c])
	}
	return w
}

// unsortedVecs returns every unsorted n-bit vector in a seeded order:
// the σ of Lemma 2.1's almost-sorters H_σ.
func unsortedVecs(rng *rand.Rand, n int) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, 1<<n)
	for x := uint64(0); x < 1<<n; x++ {
		if v := bitvec.New(n, x); !v.IsSorted() {
			out = append(out, v)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// almostSorter is H_σ, which sorts every binary input except σ.
func almostSorter(sigma bitvec.Vec) *network.Network {
	w, err := core.AlmostSorter(sigma)
	if err != nil {
		// unsortedVecs yields only unsorted σ of length ≥ 2.
		panic(fmt.Sprintf("perfbench: H_σ for %s: %v", sigma, err))
	}
	return w
}

// sorterBase is the tabulated optimal sorter where one exists.
func sorterBase(n int) *network.Network {
	if w := gen.Optimal(n); w != nil {
		return w
	}
	return gen.OddEvenMergeSort(n)
}

// randomNets returns count distinct random n = 8, 19-comparator
// networks, the generator client.BenchmarkServeBatch64 uses, in text
// form.
func randomNets(seed int64, count int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, count)
	out := make([]string, 0, count)
	for len(out) < count {
		s := network.Random(8, 19, rng).Format()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// expect is what the paper says a verify verdict must be.
type expect struct {
	holds bool
	sigma string // the only counterexample of H_σ
}

// zipfNet is one distinct network of the cluster-zipf population.
type zipfNet struct {
	text string
	exp  expect
}

// zipfPopulation returns count distinct n-line networks, indexed by
// Zipf rank: three quarters holding sorters with trailing comparators,
// one quarter almost-sorters H_σ. The class of a rank is fixed (every
// fourth rank is an H_σ) and only the networks within a class come
// from the seed, so the hot head has the same make-up on every seed.
func zipfPopulation(rng *rand.Rand, n, count int) []zipfNet {
	fam := newTrailing(rng, sorterBase(n), 3)
	sigmas := unsortedVecs(rng, n)
	out := make([]zipfNet, 0, count)
	for i := 0; len(out) < count; i++ {
		if i%4 == 3 {
			s := sigmas[i/4]
			out = append(out, zipfNet{almostSorter(s).Format(), expect{sigma: s.String()}})
			continue
		}
		out = append(out, zipfNet{fam.net(int64(i)).Format(), expect{holds: true}})
	}
	return out
}

// zipfSequence draws length ranks in [0, items) with P(r) ∝ 1/(r+1)^s:
// the head repeats (cache hits), the tail is rare (inserts and
// evictions). It inverts the cumulative distribution, so any s ≥ 0
// works.
func zipfSequence(rng *rand.Rand, s float64, items, length int) []int32 {
	cdf := make([]float64, items)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	out := make([]int32, length)
	for i := range out {
		out[i] = int32(sort.SearchFloat64s(cdf, rng.Float64()*total))
	}
	return out
}
