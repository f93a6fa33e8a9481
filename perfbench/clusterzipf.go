package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/serve"
)

// cluster-zipf: three shards with ShardID and Peers set, and single-
// shot workers, half through a Pool with WithShardRouting and half
// through a round-robin Pool, like a client not yet upgraded to
// routing. Requests follow a Zipf law over twice one shard's
// verdict-cache capacity of distinct n = 12 networks, so the head hits
// and the tail inserts and evicts: cache hits, evictions, peer fill,
// ring routing and single-shot HTTP do the work.

const (
	clusterShards = 3
	clusterCache  = 256              // verdict-cache entries per shard
	clusterPop    = 2 * clusterCache // distinct networks
	clusterLines  = 12               // lines per network
	clusterZipfS  = 1.0              // Zipf exponent
	clusterSeqLen = 1 << 18          // drawn ranks; the sequence repeats past its end
	clusterWarmup = 32768            // requests in the warm-up pass
)

type clusterZipf struct {
	tr      *tracer
	nets    []zipfNet
	seq     []int32
	next    atomic.Int64
	nodes   []*node
	pools   [2]*client.Pool // 0: routed, 1: round-robin
	workers int
	log     *verdictLog
	bufs    [][]byte
}

func newClusterZipf(seed int64, tr *tracer, workers int) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &clusterZipf{tr: tr, workers: workers, log: newVerdictLog(clusterPop), bufs: make([][]byte, workers)}
	c.nets = zipfPopulation(rng, clusterLines, clusterPop)
	c.seq = zipfSequence(rng, clusterZipfS, clusterPop, clusterSeqLen)

	lns := make([]net.Listener, clusterShards)
	urls := make([]string, clusterShards)
	for i := range lns {
		var err error
		if lns[i], urls[i], err = listen(); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
	}
	for i := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		c.nodes = append(c.nodes, startNode(lns[i], urls[i], serve.Config{
			CacheSize: clusterCache,
			ShardID:   fmt.Sprintf("s%d", i),
			Peers:     peers,
		}, tr))
	}
	var err error
	if c.pools[0], err = newPool(urls, tr, client.WithShardRouting(0)); err == nil {
		c.pools[1], err = newPool(urls, tr)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *clusterZipf) warmup(workers int) (int, int, int) {
	return runCount(workers, clusterWarmup, c.step)
}

// poolFor gives each worker one client kind; a single worker
// alternates between them.
func (c *clusterZipf) poolFor(w int, i int64) *client.Pool {
	if c.workers == 1 {
		return c.pools[i%2]
	}
	return c.pools[w%2]
}

func (c *clusterZipf) step(w int) (int, int, int) {
	i := c.next.Add(1) - 1
	k := int(c.seq[i%clusterSeqLen])
	ctx, end := c.tr.begin(context.Background(), "client.pool", uint64(i+1))
	v, err := c.poolFor(w, i).Do(ctx, sortnets.Request{Network: c.nets[k].text})
	end()
	if err != nil || v == nil {
		return 1, 1, 0
	}
	c.bufs[w] = c.log.add(k, v, c.bufs[w])
	return 1, 0, 0
}

func (c *clusterZipf) startTimed()               { c.log.inTimed.Store(true) }
func (c *clusterZipf) checksum() (uint64, int64) { return c.log.checksum() }

func (c *clusterZipf) check() (int, error) {
	return c.log.check(func(i int, v *sortnets.Verdict) error {
		return checkSorterVerdict(v, c.nets[i].text, clusterLines, c.nets[i].exp)
	})
}

// selfCheck: the cluster must fill from peers and evict.
func (c *clusterZipf) selfCheck() error {
	ct := c.counters()
	var errs []error
	if ct.peerHits == 0 {
		errs = append(errs, errors.New("no peer fill hit: the peer plane is not exercised"))
	}
	if ct.evictions == 0 {
		errs = append(errs, errors.New("no cache eviction: the working set fits the caches"))
	}
	return errors.Join(errs...)
}

func (c *clusterZipf) counters() counters {
	return nodeCounters(c.nodes, c.pools[:])
}

func (c *clusterZipf) replay() *replayInputs {
	r := &replayInputs{n: clusterLines}
	for _, n := range c.nodes {
		r.members = append(r.members, n.url)
	}
	c.log.replayInto(r, func(i int) string { return c.nets[i].text })
	return r
}

func (c *clusterZipf) close() error {
	for _, p := range c.pools {
		if p != nil {
			p.Close()
		}
	}
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}
