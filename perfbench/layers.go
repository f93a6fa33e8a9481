package main

import (
	"context"
	"time"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/ring"
	"sortnets/internal/verify"
)

// layerDef is one per-layer metric as declared in BENCHMARK.json.
type layerDef struct{ name, unit string }

// perLayer lists every per-layer metric in the order the README's
// layer table gives them. Metrics of a layer a workload does not use
// read 0 on that workload.
var perLayer = []layerDef{
	{"client.self_us", "us"},
	{"client.retries", "count"},
	{"client.routed_share", "ratio"},
	{"ring.owner_ns", "ns"},
	{"http.transport_us", "us"},
	{"http.bytes_per_verdict", "bytes"},
	{"serve.handler_us", "us"},
	{"serve.shed", "count"},
	{"serve.peer_probe_us", "us"},
	{"serve.peer_hit_ratio", "ratio"},
	{"sortnets.decode_request_ns", "ns"},
	{"sortnets.encode_verdict_ns", "ns"},
	{"sortnets.decode_verdict_ns", "ns"},
	{"sortnets.do_us", "us"},
	{"sortnets.hit_ratio", "ratio"},
	{"sortnets.coalesced_ratio", "ratio"},
	{"sortnets.computes_per_verdict", "count"},
	{"sortnets.evictions_per_verdict", "count"},
	{"sortnets.grouped_share", "ratio"},
	{"canon.resolve_us", "us"},
	{"eval.compile_us", "us"},
	{"core.enumerate_ns_per_test", "ns"},
	{"network.transpose_ns_per_test", "ns"},
	{"eval.kernel_ns_per_test", "ns"},
	{"eval.judge_ns_per_test", "ns"},
	{"eval.run_us", "us"},
	{"eval.tests_per_verdict", "count"},
	{"verify.wide_us", "us"},
	{"faults.measure_us", "us"},
	{"faults.matrix_us", "us"},
	{"search.minset_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.core_scaling", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// counters are the system's own counters, summed over its services
// and client pools.
type counters struct {
	requests, hits, coalesced, evictions int64 // Session stats
	batchEntries, batchGrouped           int64
	shed                                 int64 // /stats shed + compute_timeouts
	peerHits, peerMisses                 int64
	retries                              int64 // pool retries + failovers
	routed, poolRequests                 int64
	onCompute                            int64 // compute-hook calls
}

func (c counters) sub(b counters) counters {
	return counters{
		requests: c.requests - b.requests, hits: c.hits - b.hits, coalesced: c.coalesced - b.coalesced,
		evictions:    c.evictions - b.evictions,
		batchEntries: c.batchEntries - b.batchEntries, batchGrouped: c.batchGrouped - b.batchGrouped,
		shed: c.shed - b.shed, peerHits: c.peerHits - b.peerHits, peerMisses: c.peerMisses - b.peerMisses,
		retries: c.retries - b.retries, routed: c.routed - b.routed, poolRequests: c.poolRequests - b.poolRequests,
		onCompute: c.onCompute - b.onCompute,
	}
}

// addSession folds a Session's stats in.
func (c *counters) addSession(st sortnets.SessionStats) {
	for _, op := range st.Ops {
		c.requests += op.Requests
		c.hits += op.Hits
		c.coalesced += op.Coalesced
	}
	c.evictions += st.Cache.Evictions
	c.batchEntries += st.Batch.Entries
	c.batchGrouped += st.Batch.Grouped
}

// nodeCounters sums the counters of HTTP shards and client pools.
func nodeCounters(nodes []*node, pools []*client.Pool) counters {
	var c counters
	for _, n := range nodes {
		c.addSession(n.svc.Session().Stats())
		st := n.svc.Stats()
		c.shed += st.Resilience.Shed + st.Resilience.ComputeTimeouts
		c.peerHits += st.Peer.Hits
		c.peerMisses += st.Peer.Misses
		c.onCompute += n.computes.Load()
	}
	for _, p := range pools {
		st := p.Stats()
		c.retries += st.Retries + st.Failovers
		c.routed += st.Routed
		for _, b := range st.Backends {
			c.poolRequests += b.Requests
		}
	}
	return c
}

// replayInputs are a workload's own inputs and captured outputs, fed
// single-threaded through each layer's public functions.
type replayInputs struct {
	n         int                 // lines of the verify test stream; 0 when none
	texts     []string            // verify request network texts
	wire      []sortnets.Request  // requests that crossed the wire; nil in-process
	verdicts  []*sortnets.Verdict // captured verdicts
	batched   bool                // verdicts travelled as NDJSON batches of batchSize
	members   []string            // shard URLs of the ring; nil without routing
	mergers   []*network.Network  // n > 64 merger inputs
	selectors []*network.Network  // n > 64 selector inputs
	selectorK int
	faultNets []*network.Network // canonical networks of faults/minset requests
	exactNets []*network.Network // canonical networks of exact minset requests
}

// replayTime is the least time one replay measures; heavy items are
// still each run at least once.
const replayTime = 150 * time.Millisecond

// perItem runs pass over and over until replayTime has passed and
// returns nanoseconds per unit, pass reporting the units it did.
func perItem(pass func() int) float64 {
	units := 0
	start := time.Now()
	for units == 0 || time.Since(start) < replayTime {
		n := pass()
		if n == 0 {
			return 0
		}
		units += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

func sample[T any](xs []T, max int) []T {
	if len(xs) <= max {
		return xs
	}
	return xs[:max]
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	workers  int
	traced   *phase
	untraced *phase
	single   *phase
	spans    spanSums
	bytes    int64
	counters counters
	replay   *replayInputs
}

func rate(p *phase) float64 { return float64(p.verdicts) / p.seconds }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics computes every per-layer metric; see the README table.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	v := float64(in.traced.verdicts)
	perV := func(ns int64) float64 { return float64(ns) / 1e3 / v }
	sp, d := in.spans, in.counters

	m["client.self_us"] = perV(sp.self["client.pool"])
	m["http.transport_us"] = perV(sp.self["http.roundtrip"])
	m["serve.handler_us"] = perV(sp.total["serve.handler"])
	m["serve.peer_probe_us"] = perV(sp.total["serve.peer_probe"])
	m["sortnets.do_us"] = perV(sp.total["sortnets.do"])
	m["http.bytes_per_verdict"] = float64(in.bytes) / v

	m["client.retries"] = float64(d.retries)
	m["client.routed_share"] = ratio(d.routed, d.poolRequests)
	m["serve.shed"] = float64(d.shed)
	m["serve.peer_hit_ratio"] = ratio(d.peerHits, d.peerHits+d.peerMisses)
	m["sortnets.hit_ratio"] = ratio(d.hits, d.requests)
	m["sortnets.coalesced_ratio"] = ratio(d.coalesced, d.requests)
	m["sortnets.computes_per_verdict"] = float64(d.onCompute) / v
	m["sortnets.evictions_per_verdict"] = float64(d.evictions) / v
	m["sortnets.grouped_share"] = ratio(d.batchGrouped, d.batchEntries)

	m["runtime.gc_cpu_share"] = in.untraced.gcShare
	m["runtime.core_scaling"] = rate(in.traced) / (float64(in.workers) * rate(in.single))
	m["trace.overhead"] = 1 - rate(in.traced)/rate(in.untraced)
	stages := m["client.self_us"] + m["http.transport_us"] + m["serve.handler_us"] + m["sortnets.do_us"]
	m["trace.coverage"] = stages / (float64(in.traced.cpu.Microseconds()) / v)

	replayLayers(in.replay, m)
	return m
}

// replayLayers fills the replay-measured metrics.
func replayLayers(r *replayInputs, m map[string]float64) {
	ctx := context.Background()

	if len(r.wire) > 0 {
		reqs := sample(r.wire, 4096)
		lines := make([][]byte, len(reqs))
		for i := range reqs {
			lines[i] = sortnets.AppendRequest(nil, &reqs[i])
		}
		var req sortnets.Request
		m["sortnets.decode_request_ns"] = perItem(func() int {
			for _, l := range lines {
				if err := sortnets.UnmarshalRequestLine(l, &req); err != nil {
					return 0
				}
			}
			return len(lines)
		})
		vs := sample(r.verdicts, 4096)
		var buf []byte
		m["sortnets.encode_verdict_ns"] = perItem(func() int {
			for _, v := range vs {
				if r.batched {
					buf = sortnets.AppendBatchVerdict(buf[:0], &sortnets.BatchVerdict{Verdict: v, Source: "miss"})
				} else {
					buf = sortnets.AppendVerdict(buf[:0], v)
				}
			}
			return len(vs)
		})
		vlines := make([][]byte, len(vs))
		for i, v := range vs {
			vlines[i] = sortnets.AppendBatchVerdict(nil, &sortnets.BatchVerdict{Verdict: v, Source: "miss"})
		}
		var bv sortnets.BatchVerdict
		m["sortnets.decode_verdict_ns"] = perItem(func() int {
			for _, l := range vlines {
				if err := sortnets.UnmarshalBatchVerdictLine(l, &bv); err != nil {
					return 0
				}
			}
			return len(vlines)
		})
	}

	if len(r.members) > 0 {
		rg := ring.New(r.members, 0)
		keys := make([]string, 0, len(r.texts))
		for _, t := range sample(r.texts, 4096) {
			if w, err := network.Parse(t); err == nil {
				_, d := canon.Canonicalize(w)
				keys = append(keys, d)
			}
		}
		sink := ""
		m["ring.owner_ns"] = perItem(func() int {
			for _, k := range keys {
				sink = rg.Owner(k)
			}
			return len(keys)
		})
		_ = sink
	}

	var canonical []*network.Network
	texts := sample(r.texts, 2048)
	m["canon.resolve_us"] = perItem(func() int {
		canonical = canonical[:0]
		for _, t := range texts {
			w, err := network.Parse(t)
			if err != nil {
				return 0
			}
			c, _ := canon.Canonicalize(w)
			canonical = append(canonical, c)
		}
		return len(texts)
	}) / 1e3
	var progs []*eval.Program
	m["eval.compile_us"] = perItem(func() int {
		progs = progs[:0]
		for _, c := range canonical {
			progs = append(progs, eval.Compile(c))
		}
		return len(canonical)
	}) / 1e3

	if r.n > 0 && len(progs) > 0 {
		streamLayers(ctx, r, progs, m)
	}
	var tests, checks int
	for _, v := range r.verdicts {
		if v != nil && v.Check != nil {
			tests += v.Check.TestsRun
			checks++
		}
	}
	if checks > 0 {
		m["eval.tests_per_verdict"] = float64(tests) / float64(checks)
	}

	wide := 0.0
	if len(r.mergers)+len(r.selectors) > 0 {
		mp := compileAll(sample(r.mergers, 16))
		sp := compileAll(sample(r.selectors, 16))
		wide = perItem(func() int {
			for _, p := range mp {
				if _, err := verify.VerdictMergerWideProgramCtx(ctx, p, 1); err != nil {
					return 0
				}
			}
			for _, p := range sp {
				if _, err := verify.VerdictSelectorWideProgramCtx(ctx, p, r.selectorK, 1); err != nil {
					return 0
				}
			}
			return len(mp) + len(sp)
		}) / 1e3
	}
	m["verify.wide_us"] = wide

	if len(r.faultNets) > 0 {
		nets := sample(r.faultNets, 24)
		tests := func(n int) func() bitvec.Iterator {
			return func() bitvec.Iterator { return core.SorterBinaryTests(n) }
		}
		m["faults.measure_us"] = perItem(func() int {
			for _, w := range nets {
				if _, err := faults.MeasureCtx(ctx, w, eval.Compile(w), faults.Enumerate(w), tests(w.N), faults.ByProperty); err != nil {
					return 0
				}
			}
			return len(nets)
		}) / 1e3
		m["faults.matrix_us"] = perItem(func() int {
			for _, w := range nets {
				if _, err := faults.DetectionMatrixCtx(ctx, w, eval.Compile(w), faults.Enumerate(w), tests(w.N), faults.ByProperty); err != nil {
					return 0
				}
			}
			return len(nets)
		}) / 1e3
		var mats []*faults.Matrix
		for _, w := range sample(r.exactNets, 24) {
			mat, err := faults.DetectionMatrixCtx(ctx, w, eval.Compile(w), faults.Enumerate(w), tests(w.N), faults.ByProperty)
			if err == nil {
				mats = append(mats, mat)
			}
		}
		m["search.minset_us"] = perItem(func() int {
			for _, mat := range mats {
				// The serving path's budget and its sequential solver.
				if _, _, err := mat.ExactMinimalDetectingSetCtx(ctx, 2_000_000, 1); err != nil {
					return 0
				}
			}
			return len(mats)
		}) / 1e3
	}
}

func compileAll(ws []*network.Network) []*eval.Program {
	out := make([]*eval.Program, len(ws))
	for i, w := range ws {
		c, _ := canon.Canonicalize(w)
		out[i] = eval.Compile(c)
	}
	return out
}

// streamLayers measures the minimal-test-stream stages on the
// workload's n: enumeration, transpose into 64-lane batches, the
// comparator kernel, the sortedness judge, and whole verdict runs.
func streamLayers(ctx context.Context, r *replayInputs, progs []*eval.Program, m map[string]float64) {
	m["core.enumerate_ns_per_test"] = perItem(func() int {
		it := core.SorterBinaryTests(r.n)
		k := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			k++
		}
		return k
	})
	var vecs []bitvec.Vec
	it := core.SorterBinaryTests(r.n)
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		vecs = append(vecs, v)
	}
	chunks := make([][]bitvec.Vec, 0, len(vecs)/network.LanesPerBatch+1)
	for i := 0; i < len(vecs); i += network.LanesPerBatch {
		j := i + network.LanesPerBatch
		if j > len(vecs) {
			j = len(vecs)
		}
		chunks = append(chunks, vecs[i:j])
	}
	batches := make([]*network.Batch, len(chunks))
	m["network.transpose_ns_per_test"] = perItem(func() int {
		for i, c := range chunks {
			batches[i] = network.LoadVecs(r.n, c)
		}
		return len(vecs)
	})
	kp := sample(progs, 16)
	m["eval.kernel_ns_per_test"] = perItem(func() int {
		// The kernel's work does not depend on the data, so applying
		// programs to batches already evaluated costs the same.
		for _, p := range kp {
			for _, b := range batches {
				p.ApplyBatch(b)
			}
		}
		return len(kp) * len(vecs)
	})
	judge := eval.SortedJudge()
	var sink uint64
	m["eval.judge_ns_per_test"] = perItem(func() int {
		for _, b := range batches {
			sink |= judge.Rejects(nil, b)
		}
		return len(vecs)
	})
	_ = sink

	rp := sample(progs, 256)
	if r.batched {
		m["eval.run_us"] = perItem(func() int {
			for i := 0; i < len(rp); i += batchSize {
				j := i + batchSize
				if j > len(rp) {
					j = len(rp)
				}
				if _, err := eval.RunManyCtx(ctx, rp[i:j], core.SorterBinaryTests(r.n), judge); err != nil {
					return 0
				}
			}
			return len(rp)
		}) / 1e3
		return
	}
	m["eval.run_us"] = perItem(func() int {
		for _, p := range rp {
			if _, err := eval.New(p, 1).RunCtx(ctx, core.SorterBinaryTests(r.n), judge); err != nil {
				return 0
			}
		}
		return len(rp)
	}) / 1e3
}
