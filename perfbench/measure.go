package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// errFewSamples is returned by percentile when fewer than ten samples
// lie beyond the requested quantile: such a percentile is one or two
// unlucky requests, not a property of the system.
var errFewSamples = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses to report when fewer than ten samples
// lie strictly beyond the returned rank. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, errFewSamples
	}
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if len(samples)-1-rank < 10 {
		return 0, errFewSamples
	}
	sort.Float64s(samples)
	return samples[rank], nil
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place. The median of nothing is NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is runtime.MemStats.Mallocs. ReadMemStats stops the world
// for a few microseconds; it is called once per measurement window.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates,
// whose deltas give the GC share of one interval (MemStats'
// GCCPUFraction covers the whole process lifetime instead).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// step performs one closed-loop round trip for worker w: one batch or
// one verdict. It reports the verdicts attempted, how many of them
// failed, and a class tag for the per-class time shares.
type step func(w int) (verdicts, failed, tag int)

// maxTags bounds the class tags a step may report.
const maxTags = 4

// workerLog is what one worker records in one phase.
type workerLog struct {
	lat      [][]float64 // per window: round-trip latencies in ms
	verdicts []int       // per window: verdicts completed
	failed   int
	requests int
	tagTime  [maxTags]time.Duration
}

// window is one time slice of a timed phase.
type window struct {
	seconds  float64 // time the workers ran
	verdicts int
	cpu      time.Duration
	mallocs  uint64
	lat      []float64
	speed    float64 // host speed relative to refCalibRate; 1 when not calibrated
}

// phase is the outcome of one timed phase.
type phase struct {
	seconds  float64 // time the workers ran, calibrations excluded
	requests int
	verdicts int
	failed   int
	cpu      time.Duration
	gcShare  float64
	windows  []window
	tagTime  [maxTags]time.Duration
}

// runTimed slices a phase of length dur into nwin windows. In each,
// workers closed-loop goroutines call do until the window's working
// time has passed; the calling goroutine reads CPU time and allocation
// counts at its edges. With a calibrator, the last calibShare of each
// window measures the host's speed while the workers are stopped.
func runTimed(workers int, dur time.Duration, nwin int, do step, cal *calibrator) *phase {
	logs := make([]*workerLog, workers)
	for i := range logs {
		logs[i] = &workerLog{lat: make([][]float64, nwin), verdicts: make([]int, nwin)}
	}
	winDur := dur / time.Duration(nwin)
	workDur := winDur
	if cal != nil {
		workDur = winDur - time.Duration(calibShare*float64(winDur))
	}
	gc0, tot0 := gcCPU()
	p := &phase{windows: make([]window, nwin)}
	for k := range p.windows {
		win := &p.windows[k]
		allocs0 := mallocs()
		cpu0 := cpuTime()
		start := time.Now()
		end := start.Add(workDur)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lg := logs[w]
				for {
					t0 := time.Now()
					if !t0.Before(end) {
						return
					}
					n, f, tag := do(w)
					d := time.Since(t0)
					lg.lat[k] = append(lg.lat[k], float64(d)/1e6)
					lg.verdicts[k] += n
					lg.failed += f
					lg.requests++
					lg.tagTime[tag] += d
				}
			}(w)
		}
		wg.Wait()
		win.seconds = time.Since(start).Seconds()
		win.cpu = cpuTime() - cpu0
		win.mallocs = mallocs() - allocs0
		win.speed = 1
		if cal != nil {
			win.speed = cal.speed(winDur - workDur)
		}
	}
	gc1, tot1 := gcCPU()
	if tot1 > tot0 {
		p.gcShare = (gc1 - gc0) / (tot1 - tot0)
	}
	for k := range p.windows {
		win := &p.windows[k]
		for _, lg := range logs {
			win.verdicts += lg.verdicts[k]
			win.lat = append(win.lat, lg.lat[k]...)
		}
		p.seconds += win.seconds
		p.cpu += win.cpu
		p.verdicts += win.verdicts
	}
	for _, lg := range logs {
		p.failed += lg.failed
		p.requests += lg.requests
		for t := range lg.tagTime {
			p.tagTime[t] += lg.tagTime[t]
		}
	}
	return p
}

// runCount drives workers closed-loop goroutines until total round
// trips have been made between them: the warm-up pass, whose length is
// a request count so that it does the same work on every run.
func runCount(workers, total int, do step) (requests, verdicts, failed int) {
	var next, nv, nf atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				n, f, _ := do(w)
				nv.Add(int64(n))
				nf.Add(int64(f))
			}
		}(w)
	}
	wg.Wait()
	return total, int(nv.Load()), int(nf.Load())
}

// summary is the end-to-end reading of one timed phase, scaled to the
// reference host speed window by window: each figure is the median
// over the phase's windows, so one stalled second on a shared machine
// moves it less than it would move a whole-phase mean.
type summary struct {
	throughput   float64 // verdicts per second
	p50, p99     float64 // round-trip latency, ms
	cpuPerV      float64 // µs of process CPU per verdict
	allocsPerV   float64
	p99Windows   int // windows with enough samples for a p99
	latencySamps int
}

// summarize computes the window medians. Times are multiplied, and
// rates divided, by the window's host speed. A window's p99 counts
// only when it has at least ten samples beyond it; if fewer than three
// windows qualify, the p99 is taken over the whole phase instead, and
// an error is returned when even that has too few samples.
func summarize(p *phase) (summary, error) {
	var thr, p50s, p99s, cpus, allocs, all []float64
	for _, w := range p.windows {
		lat := make([]float64, len(w.lat))
		for i, l := range w.lat {
			lat[i] = l * w.speed
		}
		all = append(all, lat...)
		if w.verdicts == 0 || w.seconds <= 0 {
			continue
		}
		thr = append(thr, float64(w.verdicts)/w.seconds/w.speed)
		cpus = append(cpus, float64(w.cpu.Microseconds())/float64(w.verdicts)*w.speed)
		allocs = append(allocs, float64(w.mallocs)/float64(w.verdicts))
		if v, err := percentile(lat, 0.50); err == nil {
			p50s = append(p50s, v)
		}
		if v, err := percentile(lat, 0.99); err == nil {
			p99s = append(p99s, v)
		}
	}
	s := summary{
		throughput:   median(thr),
		cpuPerV:      median(cpus),
		allocsPerV:   median(allocs),
		p99Windows:   len(p99s),
		latencySamps: len(all),
	}
	if len(thr) == 0 {
		return s, errors.New("no window completed a verdict")
	}
	if len(p50s) >= 3 {
		s.p50 = median(p50s)
	} else {
		v, err := percentile(all, 0.50)
		if err != nil {
			return s, fmt.Errorf("p50 over %d samples: %w", len(all), err)
		}
		s.p50 = v
	}
	if len(p99s) >= 3 {
		s.p99 = median(p99s)
	} else {
		v, err := percentile(all, 0.99)
		if err != nil {
			return s, fmt.Errorf("p99 over %d samples: %w", len(all), err)
		}
		s.p99 = v
		s.p99Windows = 0
	}
	return s, nil
}
