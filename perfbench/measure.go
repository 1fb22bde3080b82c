package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/ecnsim"
)

// bench drives one workload: it builds and runs operations, checks their
// output, and counts what was attempted and what failed.
type bench struct {
	w      *workload
	seed   uint64
	golden string  // digest expected at defaultSeed; "" skips the comparison
	tr     *tracer // nil when tracing is off
	heap   heapWatch

	attempted, failed int
}

// opStats is what one operation measured, untraced.
type opStats struct {
	run, cpu, allocMB, allocs, heapPeakMB float64
	rows                                  []ecnsim.Result
}

// opSeed is the simulation seed of operation i. Operation 0 runs the
// requested seed itself; later operations step by 2^32, so each measured
// operation draws fresh inputs and runs for different seeds below 2^32 never
// share one. A median over several seeds is steadier than one seed's cost.
func opSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// setup is the work before simulation starts: scenario lookup, cluster
// construction and the campaign cache key. run and parent place its spans.
func (b *bench) setup(simSeed uint64, run, parent int) (ecnsim.Job, error) {
	sp := b.tr.begin(run, parent, "lookup")
	s, err := ecnsim.MustScenario(b.w.scenario)
	b.tr.end(sp)
	if err != nil {
		return ecnsim.Job{}, err
	}
	sp = b.tr.begin(run, parent, "new_cluster")
	c, err := ecnsim.NewCluster(append(b.w.opts[:len(b.w.opts):len(b.w.opts)], ecnsim.Seed(simSeed))...)
	b.tr.end(sp)
	if err != nil {
		return ecnsim.Job{}, err
	}
	sp = b.tr.begin(run, parent, "fingerprint")
	fingerprintSink = c.Fingerprint()
	b.tr.end(sp)
	return ecnsim.Job{Scenario: s, Cluster: c}, nil
}

// fingerprintSink keeps the fingerprint computation from being optimized out.
var fingerprintSink string

// timeSetup appends per-setup wall times to dst. A warm setup takes a few
// microseconds, so setups are timed in batches and each batch's time is
// divided by its size; callers spread these calls over their whole run and
// take the median, so a passing disturbance on the machine moves few samples.
func (b *bench) timeSetup(dst []float64) ([]float64, error) {
	const batches, perBatch = 40, 25
	tr := b.tr
	b.tr = nil // thousands of setups would drown the trace
	defer func() { b.tr = tr }()
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for j := 0; j < perBatch; j++ {
			if _, err := b.setup(b.seed, 0, 0); err != nil {
				return dst, err
			}
		}
		dst = append(dst, time.Since(t0).Seconds()/perBatch)
	}
	return dst, nil
}

// op runs one operation: setup, Runner.Run, output check. wrap, if not nil,
// runs around Runner.Run (the profilers hook in there) and must call its
// argument exactly once. A failed check or run error counts as a failure.
func (b *bench) op(run int, simSeed uint64, kind string, wrap func(func())) opStats {
	b.attempted++
	root := b.tr.begin(run, 0, kind)
	defer b.tr.end(root)
	job, err := b.setup(simSeed, run, root)
	if err != nil {
		b.fail(run, err)
		return opStats{}
	}

	runtime.GC() // start every operation from the same clean heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	b.heap.start()

	var rs *ecnsim.ResultSet
	var wall time.Duration
	call := func() {
		sp := b.tr.begin(run, root, "runner.run")
		t0 := time.Now()
		rs, err = (&ecnsim.Runner{Workers: 1}).Run(context.Background(), job)
		wall = time.Since(t0)
		b.tr.end(sp)
	}
	if wrap != nil {
		wrap(call)
	} else {
		call()
	}

	peak := b.heap.stop()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	st := opStats{
		run:        wall.Seconds(),
		cpu:        cpu1 - cpu0,
		allocMB:    float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		allocs:     float64(ms1.Mallocs - ms0.Mallocs),
		heapPeakMB: float64(peak) / (1 << 20),
	}
	if err != nil {
		b.fail(run, err)
		return st
	}
	st.rows = rs.Results

	sp := b.tr.begin(run, root, "check")
	err = b.w.check(rs.Results)
	if err == nil && simSeed == defaultSeed && b.golden != "" {
		if got := digest(rs.Results); got != b.golden {
			err = fmt.Errorf("row digest %s differs from the golden %s", got, b.golden)
		}
	}
	b.tr.end(sp)
	if err != nil {
		b.fail(run, err)
	}
	return st
}

func (b *bench) fail(run int, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", b.w.name, run, err)
}

// endToEnd holds the untraced pass's medians, except heapPeakMB, which is the
// largest over its operations. Timings are rescaled to the reference machine
// speed (see calib.go); rawRun and kernel are the unscaled run time and the
// kernel time, for the log.
type endToEnd struct {
	setup, run, cpu, allocMB, allocs, heapPeakMB float64
	rawRun, kernel                               float64
	ops                                          int
}

// minOps is the fewest measured operations a pass takes, however long.
const minOps = 3

// measure is the untraced pass: one warm-up operation, then measured
// operations on fresh seeds until the budget is spent, with a batch of timed
// setups before each. The reference kernel runs after the warm-up and after
// every operation; an operation's timings and its setups are rescaled by the
// mean of the kernel times on either side of it. Every operation's output is
// checked.
func (b *bench) measure(budget time.Duration) (endToEnd, error) {
	start := time.Now()
	b.op(0, opSeed(b.seed, 0), "warmup", nil)
	before := kernelSeconds()
	var setups, runs, cpus, allocMB, allocs, peaks, rawRuns, kernels, iters []float64
	for i := 1; ; i++ {
		if len(runs) >= minOps && time.Since(start).Seconds()+median(iters) > budget.Seconds() {
			break
		}
		t0 := time.Now()
		batch, err := b.timeSetup(nil)
		if err != nil {
			return endToEnd{}, err
		}
		st := b.op(i, opSeed(b.seed, i), "measure", nil)
		after := kernelSeconds()
		k := (before + after) / 2
		before = after
		scale := refKernelSeconds / k
		for _, s := range batch {
			setups = append(setups, s*scale)
		}
		runs = append(runs, st.run*scale)
		cpus = append(cpus, st.cpu*scale)
		allocMB = append(allocMB, st.allocMB)
		allocs = append(allocs, st.allocs)
		peaks = append(peaks, st.heapPeakMB)
		rawRuns = append(rawRuns, st.run)
		kernels = append(kernels, k)
		iters = append(iters, time.Since(t0).Seconds())
	}
	return endToEnd{
		setup:      median(setups),
		run:        median(runs),
		cpu:        median(cpus),
		allocMB:    median(allocMB),
		allocs:     median(allocs),
		heapPeakMB: maxOf(peaks),
		rawRun:     median(rawRuns),
		kernel:     median(kernels),
		ops:        len(runs),
	}, nil
}

// maxOf is the largest of xs. The live heap a GC reports depends on where
// its cycles fall: on macroscale one operation reads 120 MiB and the next
// 160 MiB, so a median flips between the two from run to run. The largest
// reading over a run's operations is the peak the operation can reach.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapWatch records the largest live heap the collector reports while it is
// started. A finalizer on a throwaway object runs once per GC cycle and
// re-arms itself, so every cycle's live-heap figure is seen without polling.
type heapWatch struct {
	mu   sync.Mutex
	gen  int // bumped by start and stop; a stale finalizer chain ends itself
	on   bool
	peak uint64
}

type gcSentinel struct{ _ *int }

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapWatch) start() {
	h.mu.Lock()
	h.gen++
	h.on = true
	h.peak = liveHeap()
	gen := h.gen
	h.mu.Unlock()
	h.arm(gen)
}

func (h *heapWatch) arm(gen int) {
	s := &gcSentinel{}
	runtime.SetFinalizer(s, func(*gcSentinel) {
		h.mu.Lock()
		live := h.on && h.gen == gen
		if live {
			h.peak = max(h.peak, liveHeap())
		}
		h.mu.Unlock()
		if live {
			h.arm(gen)
		}
	})
}

// stop ends the watch and returns the peak, including the live heap as of
// the last cycle.
func (h *heapWatch) stop() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peak = max(h.peak, liveHeap())
	h.on = false
	h.gen++
	return h.peak
}
