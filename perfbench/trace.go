package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/ecnsim"
)

// span is one timed call the benchmark made into the program. Spans of one
// operation share Run; Parent 0 marks an operation's root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced pass runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(run, parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// layerStats is one layer's share of a profiled operation.
type layerStats struct {
	CPU     float64 `json:"cpu_s"`
	Allocs  float64 `json:"allocs"`
	AllocMB float64 `json:"alloc_mb"`
}

// perLayer is the traced pass's result: per-layer shares of one operation
// plus the counters the operation's rows report.
type perLayer struct {
	layers     map[string]*layerStats
	spinCPU    float64
	refRun     float64 // untraced median wall time of the same operation
	overhead   float64
	cpuOps     int
	cpuSamples int
	otherShare float64         // of CPU samples, the share charged to "other"
	rows       []ecnsim.Result // the last profiled operation's output
	selfTimes  map[string]float64
	spans      []span
	allocCover float64 // attributed allocations / allocations the runtime counted untraced
	// otherStacks sums, over all CPU-profiled runs, the CPU seconds of
	// stacks charged to "other", keyed by their frames joined leaf first, so
	// an unclassified hot spot can be found from the trace file.
	otherStacks map[string]float64
}

// traced is the traced pass. All its operations run the requested seed, so
// they do identical work: a warm-up, an untraced reference run, a
// CPU-profiled run and an allocation-profiled run (MemProfileRate=1), then
// further reference and CPU-profiled runs while the budget lasts. The
// profiles start and stop around Runner.Run only; each sample is charged to
// a layer by classify.
func (b *bench) traced(budget time.Duration) (*perLayer, error) {
	start := time.Now()
	b.tr = newTracer()
	defer func() { b.tr = nil }()

	seed := opSeed(b.seed, 0)
	run := 0
	next := func() int { run++; return run }
	b.op(next(), seed, "warmup", nil)
	var refs []opStats
	refOp := func() { refs = append(refs, b.op(next(), seed, "reference", nil)) }

	pl := &perLayer{layers: map[string]*layerStats{}, otherStacks: map[string]float64{}}
	for _, l := range layers {
		pl.layers[l] = &layerStats{}
	}
	var cpuWalls []float64
	cpuOp := func() error {
		var buf bytes.Buffer
		var perr error
		st := b.op(next(), seed, "cpu_profile", func(call func()) {
			if perr = pprof.StartCPUProfile(&buf); perr != nil {
				call()
				return
			}
			call()
			pprof.StopCPUProfile()
		})
		if perr != nil {
			return perr
		}
		p, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		cpu, count := p.valueIndex("cpu"), p.valueIndex("samples")
		if cpu < 0 || count < 0 {
			return fmt.Errorf("cpu profile lacks cpu/samples values")
		}
		for _, s := range p.samples {
			layer, spin := classify(s.stack)
			sec := float64(s.values[cpu]) / 1e9
			pl.layers[layer].CPU += sec
			if spin {
				pl.spinCPU += sec
			}
			if layer == "other" {
				pl.otherStacks[strings.Join(s.stack, ";")] += sec
			}
			pl.cpuSamples += int(s.values[count])
		}
		cpuWalls = append(cpuWalls, st.run)
		pl.rows = st.rows
		return nil
	}

	refOp()
	if err := cpuOp(); err != nil {
		return nil, err
	}
	allocWall, err := b.allocOp(next(), seed, pl)
	if err != nil {
		return nil, err
	}
	for time.Since(start).Seconds()+2*median(cpuWalls) < budget.Seconds() {
		refOp()
		if err := cpuOp(); err != nil {
			return nil, err
		}
	}

	var refRuns, refAllocs []float64
	for _, r := range refs {
		refRuns = append(refRuns, r.run)
		refAllocs = append(refAllocs, r.allocs)
	}
	pl.refRun = median(refRuns)
	if a := median(refAllocs); a > 0 {
		var attributed float64
		for _, l := range layers {
			attributed += pl.layers[l].Allocs
		}
		pl.allocCover = attributed / a
	}
	pl.cpuOps = len(cpuWalls)
	var total float64
	for _, l := range layers {
		pl.layers[l].CPU /= float64(pl.cpuOps)
		total += pl.layers[l].CPU
	}
	pl.spinCPU /= float64(pl.cpuOps)
	if total > 0 {
		pl.otherShare = pl.layers["other"].CPU / total
	}
	// What tracing one operation costs: the CPU-profiled run's extra wall
	// time plus the allocation-profiled run's, against the untraced median.
	pl.overhead = median(cpuWalls) - pl.refRun + allocWall - pl.refRun
	pl.selfTimes = b.tr.selfTimes()
	pl.spans = b.tr.spans
	return pl, nil
}

// allocOp runs one operation with every allocation sampled and charges the
// allocations made between two profile snapshots to layers. Samples with no
// frame of the benchmarked module are the benchmark's and the profiler's own
// bookkeeping around the snapshots and are left out.
func (b *bench) allocOp(run int, seed uint64, pl *perLayer) (float64, error) {
	var before, after bytes.Buffer
	var perr error
	st := b.op(run, seed, "alloc_profile", func(call func()) {
		prev := runtime.MemProfileRate
		runtime.MemProfileRate = 1
		defer func() { runtime.MemProfileRate = prev }()
		runtime.GC() // publish every allocation so far into the profile
		if perr = pprof.Lookup("allocs").WriteTo(&before, 0); perr != nil {
			call()
			return
		}
		call()
		runtime.GC()
		perr = pprof.Lookup("allocs").WriteTo(&after, 0)
	})
	if perr != nil {
		return 0, perr
	}
	byLayer := func(data []byte) (map[string][2]float64, error) {
		p, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		objs, space := p.valueIndex("alloc_objects"), p.valueIndex("alloc_space")
		if objs < 0 || space < 0 {
			return nil, fmt.Errorf("allocs profile lacks alloc_objects/alloc_space")
		}
		m := map[string][2]float64{}
		for _, s := range p.samples {
			if !hasModuleFrame(s.stack) {
				continue
			}
			layer, _ := classify(s.stack)
			v := m[layer]
			v[0] += float64(s.values[objs])
			v[1] += float64(s.values[space])
			m[layer] = v
		}
		return m, nil
	}
	a, err := byLayer(before.Bytes())
	if err != nil {
		return 0, err
	}
	z, err := byLayer(after.Bytes())
	if err != nil {
		return 0, err
	}
	for _, l := range layers {
		pl.layers[l].Allocs = z[l][0] - a[l][0]
		pl.layers[l].AllocMB = (z[l][1] - a[l][1]) / (1 << 20)
	}
	return st.run, nil
}

func hasModuleFrame(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix) {
			return true
		}
	}
	return false
}

// writeTrace writes the spans, their self times and the layer numbers of one
// traced pass to dir/<workload>-seed<seed>.json.
func writeTrace(dir, workload string, seed uint64, pl *perLayer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		Workload   string                 `json:"workload"`
		Seed       uint64                 `json:"seed"`
		CPUOps     int                    `json:"cpu_profiled_ops"`
		CPUSamples int                    `json:"cpu_samples"`
		OtherShare float64                `json:"other_cpu_share"`
		AllocCover float64                `json:"alloc_coverage"`
		Layers     map[string]*layerStats `json:"layers"`
		SelfTimes  map[string]float64     `json:"span_self_s"`
		Other      []weightedStack        `json:"top_other_stacks"`
		Spans      []span                 `json:"spans"`
	}{workload, seed, pl.cpuOps, pl.cpuSamples, pl.otherShare, pl.allocCover, pl.layers, pl.selfTimes, topStacks(pl.otherStacks, 20), pl.spans}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

type weightedStack struct {
	CPU   float64 `json:"cpu_s"`
	Stack string  `json:"stack"`
}

// topStacks returns the n heaviest stacks, heaviest first.
func topStacks(m map[string]float64, n int) []weightedStack {
	out := make([]weightedStack, 0, len(m))
	for k, v := range m {
		out = append(out, weightedStack{v, k})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPU != out[j].CPU {
			return out[i].CPU > out[j].CPU
		}
		return out[i].Stack < out[j].Stack
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
