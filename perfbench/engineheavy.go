package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/comb"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// engine-heavy: an in-process Session, no HTTP. Workers go through a
// seeded, shuffled sequence of distinct requests in three classes, each
// weighted to about a third of the CPU:
//
//	verify-n16    Session.Do verify of n = 16 sorters with trailing
//	              comparators (all 2¹⁶ − 17 tests) and of H_σ (fails at σ)
//	faults-minset Session.Do faults and minset on n = 8–10 sorters with
//	              trailing comparators, exact minsets at n = 8 only
//	wide-n96      Session.Wide merger and (2,96)-selector verdicts
//
// The enumerator, transpose, kernel and judge, the n > 64 wide path
// and faults/search do almost all the work.

const (
	engineSeqLen = 1 << 16 // requests in the sequence; none repeats
	engineWarmup = 160     // requests in the warm-up pass
	wideLines    = 96
	wideK        = 2 // selector arity
)

// Step tags of the three classes.
const (
	classVerify = iota
	classFaults
	classWide
)

// engineKind is one request kind of the mix.
type engineKind struct {
	class  int
	weight int // occurrences per block of the shuffled sequence
	op     string
	exact  bool
	fam    trailing     // the network family, or
	sigmas []bitvec.Vec // the σ of H_σ
	merger bool         // wide kinds: merger, else selector
}

// engineItem is one position of the request sequence.
type engineItem struct {
	kind int
	ord  int64 // index within the kind's family
}

// engineResult is what one request returned.
type engineResult struct {
	done bool
	text string // Do requests: the network as sent
	v    *sortnets.Verdict
	wide sortnets.WideResult
	err  error
}

type engineHeavy struct {
	tr       *tracer
	sess     *sortnets.Session
	kinds    []engineKind
	seq      []engineItem
	results  []engineResult
	next     atomic.Int64
	computes atomic.Int64 // compute-hook calls, traced runs only
	sumFrom  int          // first result not yet in a checksum
}

// engineKinds builds the mix. The weights put each class near a third
// of the CPU on the reference machine (see README.md).
func engineKinds(rng *rand.Rand) []engineKind {
	k := []engineKind{
		{class: classVerify, weight: 6, op: sortnets.OpVerify, fam: newTrailing(rng, sorterBase(16), 3)},
		{class: classVerify, weight: 3, op: sortnets.OpVerify, sigmas: unsortedVecs(rng, 16)},
	}
	for _, n := range []int{8, 9, 10} {
		t := 3
		if n == 8 {
			t = 4
		}
		k = append(k,
			engineKind{class: classFaults, weight: 2, op: sortnets.OpFaults, fam: newTrailing(rng, sorterBase(n), t)},
			engineKind{class: classFaults, weight: 2, op: sortnets.OpMinset, exact: n == 8, fam: newTrailing(rng, sorterBase(n), t)})
	}
	return append(k,
		engineKind{class: classWide, weight: 2, merger: true, fam: newTrailing(rng, gen.HalfMerger(wideLines), 2)},
		engineKind{class: classWide, weight: 2, fam: newTrailing(rng, gen.Selection(wideLines, wideK), 2)})
}

// engineSequence lays the kinds out by weight and shuffles them; the
// i-th occurrence of a kind uses the i-th member of its family.
func engineSequence(rng *rand.Rand, kinds []engineKind, length int) ([]engineItem, error) {
	seq := make([]engineItem, 0, length)
	for len(seq) < length {
		for ki, k := range kinds {
			for j := 0; j < k.weight && len(seq) < length; j++ {
				seq = append(seq, engineItem{kind: ki})
			}
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	ords := make([]int64, len(kinds))
	for i := range seq {
		kind := seq[i].kind
		seq[i].ord = ords[kind]
		ords[kind]++
	}
	for ki, k := range kinds {
		capacity := k.fam.capacity()
		if k.sigmas != nil {
			capacity = int64(len(k.sigmas))
		}
		if ords[ki] > capacity {
			return nil, fmt.Errorf("request kind %d needs %d distinct networks, its family has %d", ki, ords[ki], capacity)
		}
	}
	return seq, nil
}

func newEngineHeavy(seed int64, tr *tracer, workers int) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &engineHeavy{tr: tr, kinds: engineKinds(rng)}
	seq, err := engineSequence(rng, e.kinds, engineSeqLen)
	if err != nil {
		return nil, err
	}
	e.seq = seq
	e.results = make([]engineResult, len(seq))
	opts := []sortnets.Option{sortnets.WithWorkers(workers)}
	if tr != nil {
		opts = append(opts, sortnets.WithComputeHook(func() { e.computes.Add(1) }))
	}
	e.sess = sortnets.NewSession(opts...)
	return e, nil
}

// network returns the network of sequence item it.
func (e *engineHeavy) network(it engineItem) *network.Network {
	k := &e.kinds[it.kind]
	if k.sigmas != nil {
		return almostSorter(k.sigmas[it.ord])
	}
	return k.fam.net(it.ord)
}

func (e *engineHeavy) warmup(workers int) (int, int, int) {
	return runCount(workers, engineWarmup, e.step)
}

func (e *engineHeavy) step(w int) (int, int, int) {
	i := e.next.Add(1) - 1
	if i >= int64(len(e.seq)) {
		return 1, 1, 0 // the sequence ran out: counted as a failure
	}
	it := e.seq[i]
	k := &e.kinds[it.kind]
	wn := e.network(it)
	r := &e.results[i]
	ctx, end := e.tr.begin(context.Background(), "sortnets.do", uint64(i+1))
	if k.class == classWide {
		var p sortnets.Property = sortnets.SelectorProp{N: wideLines, K: wideK}
		if k.merger {
			p = sortnets.MergerProp{N: wideLines}
		}
		r.wide, r.err = e.sess.Wide(ctx, wn, p, 1)
	} else {
		r.text = wn.Format()
		r.v, r.err = e.sess.Do(ctx, sortnets.Request{Op: k.op, Network: r.text, Exact: k.exact})
	}
	end()
	r.done = true
	if r.err != nil {
		return 1, 1, k.class
	}
	return 1, 0, k.class
}

func (e *engineHeavy) startTimed() {}

// checksum sums the verdicts of the requests completed since the last
// call. Requests are distinct, so each verdict is summed once.
func (e *engineHeavy) checksum() (uint64, int64) {
	var sum uint64
	var n int64
	var buf []byte
	end := int(e.next.Load())
	if end > len(e.results) {
		end = len(e.results)
	}
	for i := e.sumFrom; i < end; i++ {
		r := &e.results[i]
		if !r.done || r.err != nil {
			continue
		}
		if r.v != nil {
			buf = sortnets.AppendVerdict(buf[:0], r.v)
		} else {
			buf = fmt.Appendf(buf[:0], `{"wide":{"holds":%v,"testsRun":%d}}`, r.wide.Holds, r.wide.TestsRun)
		}
		sum += fnv64(buf)
		n++
	}
	e.sumFrom = end
	return sum, n
}

// check runs the oracle over every completed request, split across
// the CPUs: it runs after the timed phase, and its time is no metric.
func (e *engineHeavy) check() (int, error) {
	end := int(e.next.Load())
	if end > len(e.results) {
		end = len(e.results)
	}
	procs := runtime.NumCPU()
	failed := make([]int, procs)
	first := make([]error, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < end; i += procs {
				if err := e.checkOne(i); err != nil {
					failed[g]++
					if first[g] == nil {
						first[g] = err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	var err error
	for g := range failed {
		total += failed[g]
		if err == nil {
			err = first[g]
		}
	}
	return total, err
}

func (e *engineHeavy) checkOne(i int) error {
	r := &e.results[i]
	if !r.done {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	it := e.seq[i]
	k := &e.kinds[it.kind]
	switch {
	case k.class == classWide:
		want := comb.SelectorBinaryTestSetSize(wideLines, wideK)
		if k.merger {
			want = comb.MergerBinaryTestSetSize(wideLines)
		}
		return checkWide(r.wide, want)
	case k.op == sortnets.OpFaults:
		return checkFaults(r.v, r.text)
	case k.op == sortnets.OpMinset:
		return checkMinset(r.v, r.text)
	case k.sigmas != nil:
		return checkSorterVerdict(r.v, r.text, 16, expect{sigma: k.sigmas[it.ord].String()})
	default:
		return checkSorterVerdict(r.v, r.text, 16, expect{holds: true})
	}
}

// selfCheck: distinct requests must never hit the cache.
func (e *engineHeavy) selfCheck() error {
	c := e.counters()
	if c.hits != 0 {
		return fmt.Errorf("sortnets.hit_ratio is %d/%d, want 0: requests repeat", c.hits, c.requests)
	}
	return nil
}

func (e *engineHeavy) counters() counters {
	var c counters
	c.addSession(e.sess.Stats())
	c.onCompute = e.computes.Load()
	return c
}

func (e *engineHeavy) replay() *replayInputs {
	r := &replayInputs{n: 16, selectorK: wideK}
	end := int(e.next.Load())
	if end > len(e.results) {
		end = len(e.results)
	}
	for i := 0; i < end; i++ {
		res := &e.results[i]
		if !res.done || res.err != nil {
			continue
		}
		it := e.seq[i]
		k := &e.kinds[it.kind]
		switch {
		case k.class == classVerify:
			r.texts = append(r.texts, res.text)
			r.verdicts = append(r.verdicts, res.v)
		case k.class == classWide && k.merger:
			r.mergers = append(r.mergers, e.network(it))
		case k.class == classWide:
			r.selectors = append(r.selectors, e.network(it))
		default:
			c, _ := canon.Canonicalize(e.network(it))
			r.faultNets = append(r.faultNets, c)
			if k.exact {
				r.exactNets = append(r.exactNets, c)
			}
		}
	}
	return r
}

func (e *engineHeavy) close() error {
	e.sess.Close()
	return nil
}
