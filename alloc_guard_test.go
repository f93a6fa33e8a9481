package sortnets

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/network"
)

// TestDoBatchCacheHitAllocs guards the Session's batched cache-hit
// path: once every verdict in a batch is cached, DoBatch must cost a
// small constant number of allocations per request (key building,
// entry bookkeeping) — not a parse, compile or encode per entry. The
// bound is ~4x the measured value (≈2.2/request on go1.24), loose
// enough for scheduler noise, tight enough to catch a regression to
// per-request resolution.
func TestDoBatchCacheHitAllocs(t *testing.T) {
	sess := NewSession(WithWorkers(1))
	defer sess.Close()

	const batch = 64
	rng := rand.New(rand.NewSource(5))
	reqs := make([]Request, batch)
	for i := range reqs {
		reqs[i] = Request{Network: network.Random(8, 15+i%6, rng).Format()}
	}
	ctx := context.Background()
	// Warm: every verdict and resolution enters its cache.
	if _, err := sess.DoBatch(ctx, reqs); err != nil {
		t.Fatalf("warm batch: %v", err)
	}

	perBatch := testing.AllocsPerRun(100, func() {
		if _, err := sess.DoBatch(ctx, reqs); err != nil {
			t.Fatalf("hit batch: %v", err)
		}
	})
	perReq := perBatch / batch
	t.Logf("cache-hit DoBatch: %.1f allocs per %d-request batch, %.2f per request", perBatch, batch, perReq)
	if perReq > 8 {
		t.Fatalf("cache-hit DoBatch allocates %.2f per request (%.1f per batch); the batched hit path has regressed", perReq, perBatch)
	}
}

// TestResolveMissAllocs guards the batched all-miss path: every entry
// of every batch is a network the Session has never seen, so each one
// is parsed, canonicalized, digested, compiled and verified. The
// resolve step builds the greedy layer schedule once, into a single
// layer-ordered slice, so a miss costs a few dozen allocations per
// request, most of them what the Session keeps: the canonical
// network, its digest, the compiled program, the verdict and their
// cache entries. The bound is ~2x the measured value (≈25
// per request on go1.24): a regression to per-layer or per-comparator
// garbage in parse, canonicalize or compile trips it.
func TestResolveMissAllocs(t *testing.T) {
	sess := NewSession(WithWorkers(1))
	defer sess.Close()

	const batch, runs = 64, 20
	rng := rand.New(rand.NewSource(6))
	seen := make(map[string]bool)
	batches := make([][]Request, runs+1) // AllocsPerRun adds one warm-up call
	for b := range batches {
		batches[b] = make([]Request, batch)
		for i := range batches[b] {
			var text string
			for text == "" || seen[text] {
				text = network.Random(8, 15+i%6, rng).Format()
			}
			seen[text] = true
			batches[b][i] = Request{Network: text}
		}
	}
	ctx := context.Background()
	next := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		vs, err := sess.DoBatch(ctx, batches[next])
		if err != nil {
			t.Fatalf("miss batch: %v", err)
		}
		for _, v := range vs {
			if v.Source != "miss" {
				t.Fatalf("entry answered as %q, want miss", v.Source)
			}
		}
		next++
	})
	perReq := perBatch / batch
	t.Logf("all-miss DoBatch: %.1f allocs per %d-request batch, %.2f per request", perBatch, batch, perReq)
	if perReq > 50 {
		t.Fatalf("all-miss DoBatch allocates %.2f per request (%.1f per batch); the resolve-miss path has regressed", perReq, perBatch)
	}
}
