package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/serve"
)

// batch-miss: one sortnetd, every worker sending NDJSON batches of
// batchSize verify requests through Pool.DoBatch. The inputs cycle in
// order over a population larger than both the verdict cache and the
// resolve memo, so every request misses both: the wire codec, resolve,
// batch grouping, HTTP and GC do most of the work.

const (
	batchSize       = 64
	batchPopulation = 32768 // 8× the 4096-entry verdict cache, 4× the 8192-entry resolve memo
	batchWarmup     = 128   // batches in the warm-up pass
)

type batchMiss struct {
	tr   *tracer
	nets []string
	node *node
	pool *client.Pool
	next atomic.Int64 // population cursor, in entries
	rid  atomic.Uint64
	log  *verdictLog
	reqs [][]sortnets.Request // per-worker batch scratch
	bufs [][]byte             // per-worker checksum scratch
}

func newBatchMiss(seed int64, tr *tracer, workers int) (instance, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	b := &batchMiss{tr: tr, log: newVerdictLog(batchPopulation)}
	b.node = startNode(ln, url, serve.Config{}, tr)
	if b.pool, err = newPool([]string{url}, tr); err != nil {
		b.node.close()
		return nil, err
	}
	b.nets = randomNets(seed, batchPopulation)
	b.reqs = make([][]sortnets.Request, workers)
	b.bufs = make([][]byte, workers)
	for w := range b.reqs {
		b.reqs[w] = make([]sortnets.Request, batchSize)
	}
	return b, nil
}

func (b *batchMiss) warmup(workers int) (int, int, int) {
	return runCount(workers, batchWarmup, b.step)
}

func (b *batchMiss) step(w int) (int, int, int) {
	base := b.next.Add(batchSize) - batchSize
	reqs := b.reqs[w]
	for j := range reqs {
		reqs[j] = sortnets.Request{Network: b.nets[(base+int64(j))%batchPopulation]}
	}
	ctx, end := b.tr.begin(context.Background(), "client.pool", b.rid.Add(1))
	vs, err := b.pool.DoBatch(ctx, reqs)
	end()
	if err != nil && len(vs) != len(reqs) {
		return len(reqs), len(reqs), 0
	}
	failed := 0
	for j, v := range vs {
		if v == nil {
			failed++
			continue
		}
		b.bufs[w] = b.log.add(int((base+int64(j))%batchPopulation), v, b.bufs[w])
	}
	return len(reqs), failed, 0
}

func (b *batchMiss) startTimed()               { b.log.inTimed.Store(true) }
func (b *batchMiss) checksum() (uint64, int64) { return b.log.checksum() }

func (b *batchMiss) check() (int, error) {
	return b.log.check(func(i int, v *sortnets.Verdict) error { return checkRandomVerdict(v, b.nets[i]) })
}

// selfCheck: an all-miss workload must see no cache hit and no retry.
func (b *batchMiss) selfCheck() error {
	c := b.counters()
	var errs []error
	if c.hits != 0 {
		errs = append(errs, fmt.Errorf("sortnets.hit_ratio is %d/%d, want 0: inputs no longer miss the cache", c.hits, c.requests))
	}
	if c.retries != 0 {
		errs = append(errs, fmt.Errorf("client.retries is %d, want 0", c.retries))
	}
	return errors.Join(errs...)
}

func (b *batchMiss) counters() counters {
	return nodeCounters([]*node{b.node}, []*client.Pool{b.pool})
}

func (b *batchMiss) replay() *replayInputs {
	r := &replayInputs{n: 8, batched: true}
	b.log.replayInto(r, func(i int) string { return b.nets[i] })
	return r
}

func (b *batchMiss) close() error {
	b.pool.Close()
	return b.node.close()
}
