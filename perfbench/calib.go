package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host,
// whose speed drifts by a quarter or more over tens of seconds as the
// neighbours' load comes and goes. A run of one commit then reads fast
// or slow depending on when it ran. To measure the program rather than
// the neighbours, every window of a timed phase is followed by a short
// calibration: a fixed, allocation-free loop that uses no sortnets
// code, run on as many goroutines as the workload has workers. Its rate
// divided by refCalibRate is the host's speed during that window, and
// the timing metrics are scaled by it to what they would read on a host
// running the loop at refCalibRate. A change to the program moves the
// workload and not the loop, so it shows in full.
//
// Workloads follow the host less closely than the loop does: the loop
// only waits on memory, the HTTP workloads partly, and engine-heavy
// computes mostly on data that stays in the core's caches. Each
// workload therefore raises the loop's speed to its own elasticity,
// the exponent that gave the steadiest medians over several sets of
// runs on the reference machine (see README.md).

const (
	// refCalibRate is the loop's typical rate, in units per second
	// over all workers, on the 2-core Intel Xeon VM the bounds were
	// set on; timing metrics are stated for a host of that speed.
	refCalibRate = 33000
	// calibShare is the share of each window spent calibrating.
	calibShare = 0.2
	// calibSetup is the calibration before each set-up.
	calibSetup = 250 * time.Millisecond

	calibTable = 1 << 20 // pointer-chase entries (4 MiB, beyond L2)
	calibChase = 512     // dependent loads per unit
	calibSort  = 256     // elements sorted per unit
)

// calibrator holds the loop's read-only inputs and per-worker scratch.
type calibrator struct {
	elasticity float64
	next       []uint32 // one random cycle through every entry
	keys       []uint32 // the unsorted keys each unit sorts a copy of
	scratch    [][]uint32
	pos        []uint32
}

func newCalibrator(workers int, elasticity float64) *calibrator {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(calibTable)
	c := &calibrator{elasticity: elasticity, next: make([]uint32, calibTable), keys: make([]uint32, calibSort)}
	for i := range perm {
		c.next[perm[i]] = uint32(perm[(i+1)%calibTable])
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint32()
	}
	c.scratch = make([][]uint32, workers)
	c.pos = make([]uint32, workers)
	for w := range c.scratch {
		c.scratch[w] = make([]uint32, calibSort)
		c.pos[w] = uint32(w * calibTable / workers)
	}
	return c
}

// unit is one fixed piece of work for worker w: a chain of dependent
// loads through the table, an integer hash over the chain, and a sort.
func (c *calibrator) unit(w int) uint32 {
	p, h := c.pos[w], uint32(2166136261)
	for i := 0; i < calibChase; i++ {
		p = c.next[p]
		h = (h ^ p) * 16777619
	}
	c.pos[w] = p
	s := c.scratch[w]
	copy(s, c.keys)
	s[0] ^= h
	slices.Sort(s)
	return s[calibSort/2]
}

// speed runs the loop on every worker for d and returns the host's
// speed relative to refCalibRate, raised to the workload's elasticity.
func (c *calibrator) speed(d time.Duration) float64 {
	var units atomic.Int64
	var sink atomic.Uint32
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := range c.scratch {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, x := int64(0), uint32(0)
			for time.Now().Before(end) {
				for i := 0; i < 8; i++ {
					x += c.unit(w)
				}
				n += 8
			}
			units.Add(n)
			sink.Add(x)
		}(w)
	}
	wg.Wait()
	return math.Pow(float64(units.Load())/time.Since(start).Seconds()/refCalibRate, c.elasticity)
}
