// Command perfbench is the repository benchmark. It runs fixed workloads
// through the public ecnsim API (MustScenario, NewCluster, Fingerprint,
// Runner{Workers: 1}.Run), checks every run's output rows, and prints each
// metric by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// An untraced pass (-trace 0) reports the end-to-end metrics: medians over
// operations on fresh seeds. A traced pass (-trace 1) profiles operations of
// the requested seed and reports per-layer CPU time and allocations plus the
// rows' own counters; it writes its spans and layer numbers under
// .bench_build/perfbench/traces. Load is a closed loop: one simulation at a time.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh [-workload all|shuffle|macroscale|hotspot-sharded|tenantmix]
//	    [-seed 1] [-seconds 10] [-trace 0|1]
//	bash perfbench/run.sh -record-golden
//
// -workload all runs both passes of every workload. The command exits 1 when
// any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/ecnsim"
)

// Paths relative to the repository root, where run.sh starts the benchmark.
const (
	goldenPath = "perfbench/golden.json"
	traceDir   = ".bench_build/perfbench/traces"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "measuring time per pass")
		traceOn = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics), 0 the untraced one")
		record  = flag.Bool("record-golden", false, "record every workload's row digest at the default seed into "+goldenPath)
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *record {
		if err := recordGolden(goldenPath); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []*workload{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fatalf("unknown workload %q (want all|%s)", *name, strings.Join(names, "|"))
	}
	gold, err := golden()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s GOMAXPROCS=%d NumCPU=%d seed=%d seconds=%g\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, *seconds)

	budget := time.Duration(*seconds * float64(time.Second))
	out := summary{Metrics: map[string]metric{}}
	for _, w := range selected {
		b := &bench{w: w, seed: *seed, golden: gold[w.name]}
		var ms map[string]metric
		if *name == "all" || *traceOn == 0 {
			e2e, err := b.measure(budget)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			ms = e2e.metrics()
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced: %d measured ops, unscaled run %.4g s, kernel %.4g s (reference %g s)\n",
				w.name, e2e.ops, e2e.rawRun, e2e.kernel, refKernelSeconds)
			printMetrics(w.name, ms)
			merge(out.Metrics, w.name, ms, len(selected) > 1)
		}
		if *name == "all" || *traceOn == 1 {
			pl, err := b.traced(budget)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			path, err := writeTrace(traceDir, w.name, *seed, pl)
			if err != nil {
				fatalf("%s: writing trace: %v", w.name, err)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d cpu-profiled ops, %d samples, other %.1f%%, allocations attributed %.1f%%; spans in %s\n",
				w.name, pl.cpuOps, pl.cpuSamples, 100*pl.otherShare, 100*pl.allocCover, path)
			ms = pl.metrics()
			printMetrics(w.name, ms)
			merge(out.Metrics, w.name, ms, len(selected) > 1)
		}
		out.Attempted += b.attempted
		out.Failed += b.failed
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metrics are the end-to-end metrics of an untraced pass.
func (e endToEnd) metrics() map[string]metric {
	return map[string]metric{
		"run_s":             {e.run, "s"},
		"setup_s":           {e.setup, "s"},
		"cpu_s":             {e.cpu, "s"},
		"alloc_mb":          {e.allocMB, "MiB"},
		"allocs":            {e.allocs, "count"},
		"heap_live_peak_mb": {e.heapPeakMB, "MiB"},
	}
}

// metrics are the per-layer metrics of a traced pass: every layer's CPU
// time and allocations per operation, and the counters the operation's rows
// report for the layer that produces them.
func (pl *perLayer) metrics() map[string]metric {
	m := map[string]metric{}
	for _, l := range layers {
		st := pl.layers[l]
		m[l+".cpu_s"] = metric{st.CPU, "s"}
		if l != "gc" {
			m[l+".allocs"] = metric{st.Allocs, "count"}
			m[l+".alloc_mb"] = metric{st.AllocMB, "MiB"}
		}
	}
	sum := func(key string) float64 {
		var t float64
		for _, r := range pl.rows {
			t += r.Values[key]
		}
		return t
	}
	events := sum(ecnsim.KeySimEvents)
	fluid, pkt := sum(ecnsim.KeyFluidBytes), sum(ecnsim.KeyPacketBytes)
	share := 0.0
	if fluid+pkt > 0 {
		share = fluid / (fluid + pkt)
	}
	// A Terasort row is one finished job (its check saw every reducer
	// finish); tenant and macroscale rows count their own.
	jobs := 0.0
	for _, r := range pl.rows {
		if v, ok := r.Values[ecnsim.KeyJobsCompleted]; ok {
			jobs += v
		} else {
			jobs++
		}
	}
	perSec := 0.0
	if pl.refRun > 0 {
		perSec = events / pl.refRun
	}
	m["shard.spin_cpu_s"] = metric{pl.spinCPU, "s"}
	m["sim.events"] = metric{events, "count"}
	m["sim.events_per_s"] = metric{perSec, "1/s"}
	m["sim.sim_s"] = metric{sum(ecnsim.KeySimTime), "s"}
	m["netsim.marks"] = metric{sum(ecnsim.KeyMarks), "count"}
	m["netsim.drops"] = metric{sum(ecnsim.KeyEarlyDrops) + sum(ecnsim.KeyOverflowDrops), "count"}
	m["netsim.rerouted_pkts"] = metric{sum(ecnsim.KeyRerouted), "count"}
	m["netsim.notifications"] = metric{sum(ecnsim.KeyNotifications), "count"}
	m["tcp.retransmits"] = metric{sum(ecnsim.KeyRetransmits), "count"}
	m["tcp.rto_events"] = metric{sum(ecnsim.KeyRTOEvents), "count"}
	m["flow.fluid_share"] = metric{share, "ratio"}
	m["flow.promotions"] = metric{sum(ecnsim.KeyPromotions), "count"}
	m["flow.rpcs"] = metric{sum(ecnsim.KeyRPCCount), "count"}
	m["mapred.jobs_completed"] = metric{jobs, "count"}
	m["trace.overhead_s"] = metric{pl.overhead, "s"}
	return m
}

// merge copies ms into dst, prefixed by the workload when several run.
func merge(dst map[string]metric, workload string, ms map[string]metric, prefix bool) {
	for k, v := range ms {
		if prefix {
			k = workload + "/" + k
		}
		dst[k] = v
	}
}

func printMetrics(workload string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-16s %-24s %16.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

// recordGolden runs every workload once at the default seed and writes the
// digests of its rows. A workload with a twin is recorded from the twin, so
// the benchmark checks the twin's bit-identity claim instead of assuming it.
func recordGolden(path string) error {
	gold := map[string]string{}
	for _, w := range workloads {
		rec := *w
		rec.opts = append(w.opts[:len(w.opts):len(w.opts)], w.twin...)
		b := &bench{w: &rec, seed: defaultSeed}
		st := b.op(0, defaultSeed, "record", nil)
		if b.failed > 0 {
			return fmt.Errorf("%s: recording run failed its check", w.name)
		}
		gold[w.name] = digest(st.rows)
		fmt.Fprintf(os.Stderr, "perfbench: %s %s\n", w.name, gold[w.name])
	}
	data, err := json.MarshalIndent(gold, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
