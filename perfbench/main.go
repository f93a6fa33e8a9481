// Command perfbench is the repository's end-to-end benchmark. It drives
// sortnets only through public entry points — client.Pool against
// serve.Service handlers on loopback listeners, and an in-process
// sortnets.Session — checks every verdict against the paper's
// test-set theorems, and prints one JSON result line. See README.md.
//
//	go run . --workload batch-miss --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// instance is one set-up workload: its services, inputs and clients.
type instance interface {
	// warmup runs the fixed warm-up pass.
	warmup(workers int) (requests, verdicts, failed int)
	// step is one closed-loop round trip of worker w.
	step(w int) (verdicts, failed, tag int)
	// startTimed marks the start of the measured phases.
	startTimed()
	// checksum returns and resets the order-independent FNV-1a sum of
	// the verdicts since the last call, with their count.
	checksum() (uint64, int64)
	// check runs the oracle over every verdict and returns how many
	// failed it.
	check() (failed int, err error)
	// selfCheck fails when the workload no longer exercises what it is
	// named for.
	selfCheck() error
	// counters snapshots the system's own counters.
	counters() counters
	// replay returns the inputs and captured outputs for the per-layer
	// replays.
	replay() *replayInputs
	close() error
}

// workload is one named traffic mix.
type workload struct {
	name    string
	setups  int // set-ups per timed run; setup_s is their median
	windows int // windows of the timed phase
	// elasticity is how closely the workload's speed follows the
	// calibration loop's (see calib.go).
	elasticity float64
	setup      func(seed int64, tr *tracer, workers int) (instance, error)
	// tagNames names the step tags whose time shares are printed and
	// must each stay within [shareLo, shareHi] of the timed phase.
	tagNames         []string
	shareLo, shareHi float64
}

var workloads = []*workload{
	{name: "batch-miss", setups: 5, windows: 15, elasticity: 0.75, setup: newBatchMiss},
	{name: "cluster-zipf", setups: 3, windows: 15, elasticity: 0.75, setup: newClusterZipf},
	{name: "engine-heavy", setups: 5, windows: 12, elasticity: 0.5, setup: newEngineHeavy,
		tagNames: []string{"verify-n16", "faults-minset", "wide-n96"}, shareLo: 0.2, shareHi: 0.5},
}

// units maps each metric to its unit, as declared in BENCHMARK.json.
var units = map[string]string{
	"setup_s":            "s",
	"throughput_rps":     "1/s",
	"latency_p50_ms":     "ms",
	"latency_p99_ms":     "ms",
	"success_rate":       "ratio",
	"cpu_us_per_verdict": "us",
	"allocs_per_verdict": "count",
	"peak_rss_mb":        "MiB",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: batch-miss, cluster-zipf or engine-heavy")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 20, "length of the measured phase(s), in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	commit := fl.String("commit", "unknown", "commit of the sources under test, for the fingerprint")
	if err := fl.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: --workload <batch-miss|cluster-zipf|engine-heavy> --seed <n> --seconds <n≥1> --trace <0|1> (got %q)", *name)
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fp := fingerprint(*commit, wl.name, *seed, *trace)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint %s\n", fpJSON)

	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = timedRun(out, wl, *seed, dur, procs)
	} else {
		res, err = tracedRun(out, wl, *seed, dur, procs)
	}
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// fingerprint identifies the machine, toolchain and sources of a run.
func fingerprint(commit, wl string, seed int64, trace int) map[string]any {
	if commit == "" || commit == "unknown" {
		commit = treeHash(".")
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"workload":   wl,
		"seed":       seed,
		"trace":      trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies the sources when no commit is known (a checkout
// exported without its repository): SHA-256 over the paths and
// contents of the Go sources and module files under root.
func treeHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// setupOnce builds one instance and runs its warm-up pass. The elapsed
// time is one setup_s sample: services up, inputs generated from the
// seed, and warm-up, with no sleeps or paced waits.
func setupOnce(out io.Writer, wl *workload, seed int64, tr *tracer, workers int) (instance, float64, error) {
	t0 := time.Now()
	inst, err := wl.setup(seed, tr, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	req, ver, failed := inst.warmup(workers)
	elapsed := time.Since(t0).Seconds()
	sum, n := inst.checksum()
	fmt.Fprintf(out, "warm-up requests=%d verdicts=%d succeeded=%d failed=%d checksum=%016x over %d verdicts setup_s=%.4f\n",
		req, ver, ver-failed, failed, sum, n, elapsed)
	if failed > 0 {
		inst.close()
		return nil, 0, fmt.Errorf("%s warm-up: %d of %d verdicts failed", wl.name, failed, ver)
	}
	return inst, elapsed, nil
}

// timedRun is the end-to-end run: several set-ups (setup_s is the
// median of their times, each scaled by the host speed measured just
// before it), then one timed phase on the last, with tracing off and a
// calibration after every window.
func timedRun(out io.Writer, wl *workload, seed int64, dur time.Duration, workers int) (*result, error) {
	cal := newCalibrator(workers, wl.elasticity)
	var setups, raw, speeds []float64
	var inst instance
	for k := 0; k < wl.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		runtime.GC()
		speed := cal.speed(calibSetup)
		next, s, err := setupOnce(out, wl, seed, nil, workers)
		if err != nil {
			return nil, err
		}
		inst, raw, speeds, setups = next, append(raw, s), append(speeds, speed), append(setups, s*speed)
	}
	defer inst.close()

	runtime.GC()
	inst.startTimed()
	p := runTimed(workers, dur, wl.windows, inst.step, cal)
	s, err := summarize(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res, err := finish(out, wl, inst, p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "timed requests=%d verdicts=%d latency_samples=%d p99_windows=%d of %d setups_s=%.4f speeds=%.4f scaled=%.4f\n",
		p.requests, p.verdicts, s.latencySamps, s.p99Windows, len(p.windows), raw, speeds, setups)
	printWindows(out, p)
	if err := checkTagShares(out, wl, p); err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":            median(setups),
		"throughput_rps":     s.throughput,
		"latency_p50_ms":     s.p50,
		"latency_p99_ms":     s.p99,
		"success_rate":       float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"cpu_us_per_verdict": s.cpuPerV,
		"allocs_per_verdict": s.allocsPerV,
		"peak_rss_mb":        rss,
	}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return res, nil
}

// finish prints the timed checksum, runs the oracle and the workload's
// self-check, and returns the result skeleton.
func finish(out io.Writer, wl *workload, inst instance, phases ...*phase) (*result, error) {
	sum, n := inst.checksum()
	attempted, failed := 0, 0
	for _, p := range phases {
		attempted += p.verdicts
		failed += p.failed
	}
	fmt.Fprintf(out, "timed checksum=%016x over %d verdicts\n", sum, n)
	oracleFailed, oerr := inst.check()
	if oerr != nil {
		fmt.Fprintf(out, "oracle: %d verdicts failed; first: %v\n", oracleFailed, oerr)
	}
	failed += oracleFailed
	if failed > attempted {
		failed = attempted
	}
	fmt.Fprintf(out, "timed verdicts attempted=%d succeeded=%d failed=%d\n", attempted, attempted-failed, failed)
	if err := inst.selfCheck(); err != nil {
		return nil, fmt.Errorf("%s self-check: %w", wl.name, err)
	}
	if attempted == 0 {
		return nil, errors.New("no verdict was attempted")
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}, nil
}

// printWindows prints each window's throughput, CPU per verdict and
// latency percentiles as measured, with the host speed they are scaled
// by, so that a noisy run can be told from a slow one.
func printWindows(out io.Writer, p *phase) {
	for k, w := range p.windows {
		lat := append([]float64(nil), w.lat...)
		p50, _ := percentile(lat, 0.50)
		p99, err := percentile(lat, 0.99)
		p99s := fmt.Sprintf("%.4f", p99)
		if err != nil {
			p99s = "n/a"
		}
		fmt.Fprintf(out, "window %d verdicts=%d rps=%.1f cpu_us=%.2f p50_ms=%.4f p99_ms=%s samples=%d speed=%.4f\n",
			k, w.verdicts, float64(w.verdicts)/w.seconds, float64(w.cpu.Microseconds())/float64(w.verdicts), p50, p99s, len(w.lat), w.speed)
	}
}

// checkTagShares prints each class's share of the phase's request
// time and fails when one strays outside the workload's stated share.
func checkTagShares(out io.Writer, wl *workload, p *phase) error {
	var total time.Duration
	for _, d := range p.tagTime {
		total += d
	}
	var errs []error
	for i, n := range wl.tagNames {
		s := float64(p.tagTime[i]) / float64(total)
		fmt.Fprintf(out, "class %s time_share=%.3f\n", n, s)
		if s < wl.shareLo || s > wl.shareHi {
			errs = append(errs, fmt.Errorf("%s self-check: class %s takes %.2f of the time, outside [%.2f, %.2f]",
				wl.name, n, s, wl.shareLo, wl.shareHi))
		}
	}
	return errors.Join(errs...)
}

// tracedRun is the per-layer run. An untraced phase on its own set-up
// gives the reference throughput; a traced phase gives the spans and
// counter deltas; a traced phase at GOMAXPROCS=1 gives the core
// scaling; then the workload's inputs are replayed through each
// layer's public functions, single-threaded.
func tracedRun(out io.Writer, wl *workload, seed int64, dur time.Duration, workers int) (*result, error) {
	part := dur / 3
	ref, _, err := setupOnce(out, wl, seed, nil, workers)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ref.startTimed()
	pu := runTimed(workers, part, wl.windows, ref.step, nil)
	if err := ref.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	inst, _, err := setupOnce(out, wl, seed, tr, workers)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	inst.startTimed()
	before := inst.counters()
	bytes0 := tr.bytes.Load()
	from := tr.mark()
	tr.on.Store(true)
	pt := runTimed(workers, part, wl.windows, inst.step, nil)
	to := tr.mark()
	bytes := tr.bytes.Load() - bytes0
	delta := inst.counters().sub(before)

	prev := runtime.GOMAXPROCS(1)
	p1 := runTimed(workers, part, wl.windows, inst.step, nil)
	runtime.GOMAXPROCS(prev)
	tr.on.Store(false)

	res, err := finish(out, wl, inst, pt, p1)
	if err != nil {
		return nil, err
	}
	if err := checkTagShares(out, wl, pt); err != nil {
		return nil, err
	}
	lm := layerMetrics(layerInput{
		workers:  workers,
		traced:   pt,
		untraced: pu,
		single:   p1,
		spans:    tr.sums(from, to),
		bytes:    bytes,
		counters: delta,
		replay:   inst.replay(),
	})
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{Value: lm[def.name], Unit: def.unit}
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d recorded (%d in the traced phase, %d dropped) written to %s\n", tr.mark(), to-from, tr.dropped, path)
	return res, nil
}
