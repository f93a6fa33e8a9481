package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/big"
	"sync/atomic"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// The oracle checks verdicts against the paper's theorems and against
// exhaustive evaluation, never against the engine paths under test. It
// runs after the timed phase, outside every timed interval.

func sizeEq(got int, want *big.Int) bool { return want.IsInt64() && int64(got) == want.Int64() }

// checkDigest confirms the verdict names the canonical form of text.
func checkDigest(v *sortnets.Verdict, text string) (*network.Network, error) {
	w, err := network.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("oracle cannot parse its own input: %w", err)
	}
	c, digest := canon.Canonicalize(w)
	if v.Digest != digest {
		return nil, fmt.Errorf("digest %.12s…, want %.12s… for %s", v.Digest, digest, text)
	}
	return c, nil
}

// checkSorterVerdict holds a verify verdict to Theorem 2.2(i) and
// Lemma 2.1: a sorter holds after exactly 2ⁿ − n − 1 tests, and H_σ
// fails with σ as its counterexample.
func checkSorterVerdict(v *sortnets.Verdict, text string, n int, exp expect) error {
	if v == nil || v.Check == nil || v.Op != sortnets.OpVerify {
		return fmt.Errorf("not a verify verdict: %+v", v)
	}
	if _, err := checkDigest(v, text); err != nil {
		return err
	}
	c := v.Check
	if exp.holds {
		if !c.Holds || !sizeEq(c.TestsRun, comb.SorterBinaryTestSetSize(n)) {
			return fmt.Errorf("sorter %s: holds=%v testsRun=%d, want holds after %s tests",
				text, c.Holds, c.TestsRun, comb.SorterBinaryTestSetSize(n))
		}
		return nil
	}
	if c.Holds || c.Counterexample != exp.sigma {
		return fmt.Errorf("H_σ for σ=%s: holds=%v counterexample=%q", exp.sigma, c.Holds, c.Counterexample)
	}
	return nil
}

// checkRandomVerdict compares a verify verdict on an arbitrary n ≤ 12
// network with verify.GroundTruth over all 2ⁿ inputs. A reported
// counterexample must be left unsorted by the network, with the
// reported output.
func checkRandomVerdict(v *sortnets.Verdict, text string) error {
	if v == nil || v.Check == nil || v.Op != sortnets.OpVerify {
		return fmt.Errorf("not a verify verdict: %+v", v)
	}
	w, err := checkDigest(v, text)
	if err != nil {
		return err
	}
	gt := verify.GroundTruth(w, verify.Sorter{N: w.N})
	c := v.Check
	if c.Holds != gt.Holds {
		return fmt.Errorf("%s: holds=%v, exhaustive evaluation says %v", text, c.Holds, gt.Holds)
	}
	if c.Holds {
		if !sizeEq(c.TestsRun, comb.SorterBinaryTestSetSize(w.N)) {
			return fmt.Errorf("%s: holds after %d tests, want %s", text, c.TestsRun, comb.SorterBinaryTestSetSize(w.N))
		}
		return nil
	}
	cx, err := bitvec.FromString(c.Counterexample)
	if err != nil || cx.N != w.N {
		return fmt.Errorf("%s: malformed counterexample %q", text, c.Counterexample)
	}
	out := w.ApplyVec(cx)
	if out.IsSorted() || out.String() != c.Output {
		return fmt.Errorf("%s: counterexample %s gives %s (sorted=%v), verdict says %s",
			text, cx, out, out.IsSorted(), c.Output)
	}
	return nil
}

// checkWide holds an n > 64 verdict to Theorems 2.4(i) and 2.5(i):
// the network holds after exactly the minimal test set's size.
func checkWide(r sortnets.WideResult, want *big.Int) error {
	if !r.Holds || !sizeEq(r.TestsRun, want) {
		return fmt.Errorf("wide verdict holds=%v testsRun=%d, want holds after %s tests", r.Holds, r.TestsRun, want)
	}
	return nil
}

// checkFaults checks a faults verdict's counts against the fault list
// of the canonical network.
func checkFaults(v *sortnets.Verdict, text string) error {
	if v == nil || v.Faults == nil {
		return fmt.Errorf("not a faults verdict: %+v", v)
	}
	w, err := checkDigest(v, text)
	if err != nil {
		return err
	}
	f := v.Faults
	coverage := 1.0
	if f.Detectable > 0 {
		coverage = float64(f.Detected) / float64(f.Detectable)
	}
	if f.Faults != len(faults.Enumerate(w)) || f.Detected > f.Detectable || f.Detectable > f.Faults || f.Coverage != coverage {
		return fmt.Errorf("%s: inconsistent fault counts %+v", text, *f)
	}
	return nil
}

// checkMinset checks that a minset's tests detect every fault the full
// minimal sorter test set detects, fault by fault,
// and that the reported counts agree.
func checkMinset(v *sortnets.Verdict, text string) error {
	if v == nil || v.Minset == nil {
		return fmt.Errorf("not a minset verdict: %+v", v)
	}
	w, err := checkDigest(v, text)
	if err != nil {
		return err
	}
	m := v.Minset
	tests := make([]bitvec.Vec, len(m.Tests))
	for i, s := range m.Tests {
		if tests[i], err = bitvec.FromString(s); err != nil || tests[i].N != w.N {
			return fmt.Errorf("%s: malformed minset test %q", text, s)
		}
	}
	fs := faults.Enumerate(w)
	golden := eval.Compile(w)
	detected := 0
	for _, f := range fs {
		// One Detector per fault is faults.Detects with the fault
		// compiled once.
		d := faults.NewDetector(w, golden, f, faults.ByProperty)
		full, err := d.DetectedByCtx(context.Background(), core.SorterBinaryTests(w.N))
		if err != nil {
			return err
		}
		if !full {
			continue
		}
		detected++
		hit := false
		for _, tau := range tests {
			if d.Detects(tau) {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("%s: minset misses fault %s that the full test set detects", text, f.Describe())
		}
	}
	if m.Faults != len(fs) || m.Detected != detected || !sizeEq(m.FullTests, comb.SorterBinaryTestSetSize(w.N)) || m.Size != len(m.Tests) {
		return fmt.Errorf("%s: minset counts %d/%d faults, %d full tests, size %d; want %d/%d, %s",
			text, m.Detected, m.Faults, m.FullTests, m.Size, detected, len(fs), comb.SorterBinaryTestSetSize(w.N))
	}
	return nil
}

// verdictHash is FNV-1a over the verdict's wire bytes, the term that
// adversary -load sums into its order-independent checksum.
func verdictHash(buf []byte, v *sortnets.Verdict) ([]byte, uint64) {
	buf = sortnets.AppendVerdict(buf[:0], v)
	return buf, fnv64(buf)
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// verdictLog keeps, for workloads that repeat inputs, the first
// verdict seen for each input index and compares every later verdict
// for that index with it by hash. Verdicts are deterministic bytes, so
// checking the first against the oracle and the rest against the
// first checks all of them in bounded memory.
type verdictLog struct {
	slots    []atomic.Pointer[logged]
	timed    []atomic.Int32 // verdicts per index in the timed phase
	inTimed  atomic.Bool
	mismatch atomic.Int64 // verdicts whose bytes differ from their index's first
	sum      atomic.Uint64
	count    atomic.Int64
}

type logged struct {
	v *sortnets.Verdict
	h uint64
}

func newVerdictLog(n int) *verdictLog {
	return &verdictLog{slots: make([]atomic.Pointer[logged], n), timed: make([]atomic.Int32, n)}
}

// add records verdict v for input i; buf is the caller's scratch.
func (l *verdictLog) add(i int, v *sortnets.Verdict, buf []byte) []byte {
	buf, h := verdictHash(buf, v)
	l.sum.Add(h)
	l.count.Add(1)
	timed := l.inTimed.Load()
	if timed {
		l.timed[i].Add(1)
	}
	first := l.slots[i].Load()
	if first == nil {
		if l.slots[i].CompareAndSwap(nil, &logged{v: v, h: h}) {
			return buf
		}
		first = l.slots[i].Load()
	}
	if first.h != h {
		l.mismatch.Add(1)
	}
	return buf
}

// replayInto adds every input seen, as sent over the wire, and its
// first verdict to r.
func (l *verdictLog) replayInto(r *replayInputs, text func(i int) string) {
	for i := range l.slots {
		if lg := l.slots[i].Load(); lg != nil {
			r.texts = append(r.texts, text(i))
			r.wire = append(r.wire, sortnets.Request{Network: text(i)})
			r.verdicts = append(r.verdicts, lg.v)
		}
	}
}

// checksum returns and resets the running checksum and its count.
func (l *verdictLog) checksum() (uint64, int64) {
	return l.sum.Swap(0), l.count.Swap(0)
}

// check runs the oracle on the first verdict of every index seen and
// returns how many verdicts failed: the timed-phase verdicts of an
// index whose first verdict is wrong, plus every verdict that differs
// from its index's first.
func (l *verdictLog) check(oracle func(i int, v *sortnets.Verdict) error) (failed int, firstErr error) {
	failed = int(l.mismatch.Load())
	if failed > 0 {
		firstErr = errors.New("a repeated input got a verdict differing from its first")
	}
	for i := range l.slots {
		lg := l.slots[i].Load()
		if lg == nil {
			continue
		}
		if err := oracle(i, lg.v); err != nil {
			failed += int(l.timed[i].Load())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return failed, firstErr
}
