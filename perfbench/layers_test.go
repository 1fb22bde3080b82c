package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		layer string
		spin  bool
	}{
		{"group loop", []string{"repro/internal/sim.(*Group).RunLoop", "repro/internal/experiment.RunJob"}, "shard", false},
		{"shard worker body", []string{"repro/internal/pool.(*ShardSet).worker"}, "shard", true},
		{"barrier spin in Gosched", []string{"runtime.Gosched", "repro/internal/pool.(*ShardSet).Round", "repro/internal/sim.(*Group).RunLoop"}, "shard", true},
		{"shard runs its events", []string{"repro/internal/sim.(*Engine).RunWindow", "repro/internal/sim.(*Group).runShard", "repro/internal/pool.(*ShardSet).worker"}, "sim", false},
		{"inbox drain", []string{"sort.SliceStable", "repro/internal/netsim.(*Network).DrainCrossShard.func1"}, "shard", false},
		{"scheduler half of Gosched", []string{"runtime.casgstatus", "runtime.goschedImpl", "runtime.gosched_m", "runtime.mcall"}, "shard", true},
		{"route tables under cluster.New", []string{"runtime.makemap", "repro/internal/netsim.(*Switch).SetRoutes", "repro/internal/topo.(*leafSpineState).rebuildRoutes", "repro/internal/cluster.New", "repro/internal/experiment.RunMacro"}, "build", false},
		{"queue construction under cluster.New", []string{"repro/internal/qdisc.NewRED", "repro/internal/cluster.New.func2"}, "build", false},
		{"malloc under tcp", []string{"runtime.mallocgc", "runtime.newobject", "repro/internal/tcp.(*Conn).trySend", "repro/internal/sim.(*Engine).Step"}, "tcp", false},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", false},
		{"gc assist stays with caller", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/flow.(*Fluid).solve"}, "flow", false},
		{"units helper is transparent", []string{"repro/internal/units.Time.Add", "repro/internal/qdisc.(*RED).Enqueue"}, "qdisc", false},
		{"stats is metrics", []string{"repro/internal/stats.(*Windowed).Add"}, "metrics", false},
		{"topo is build", []string{"repro/internal/topo.(*Graph).Routes"}, "build", false},
		{"public API is harness", []string{"repro/ecnsim.(*Runner).Run"}, "harness", false},
		{"worker pool is harness", []string{"repro/internal/pool.(*Pool).Run.func1"}, "harness", false},
		{"unknown module frame", []string{"repro/internal/simnet.(*gate).quiesce"}, "other", false},
		{"no module frame", []string{"runtime.futex", "runtime.mstart"}, "other", false},
		{"benchmark frame", []string{"main.main"}, "other", false},
	}
	for _, c := range cases {
		layer, spin := classify(c.stack)
		if layer != c.layer || spin != c.spin {
			t.Errorf("%s: classify(%q) = %q, spin=%v; want %q, spin=%v", c.name, c.stack, layer, spin, c.layer, c.spin)
		}
	}
}

// TestClassifierCoversLayers pins the report order: every layer a rule can
// return is listed, so no sample can fall outside the report.
func TestClassifierCoversLayers(t *testing.T) {
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
	}
	for pkg, l := range packageLayer {
		if !listed[l] {
			t.Errorf("package %s maps to unlisted layer %q", pkg, l)
		}
	}
	for _, l := range []string{"shard", "gc", "other"} {
		if !listed[l] {
			t.Errorf("layer %q missing from the report order", l)
		}
	}
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x = spinWork(x)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cpu := p.valueIndex("cpu")
	if cpu < 0 {
		t.Fatalf("sample types %q lack cpu", p.sampleTypes)
	}
	var total int64
	found := false
	for _, s := range p.samples {
		total += s.values[cpu]
		for _, fn := range s.stack {
			if fn == "perfbench.spinWork" || fn == "main.spinWork" {
				found = true
			}
		}
	}
	if total <= 0 || !found {
		t.Fatalf("profile of %d samples: total cpu %d ns, spinWork seen %v", len(p.samples), total, found)
	}
}

//go:noinline
func spinWork(x int) int {
	for i := 0; i < 1000; i++ {
		x = x*31 + i
	}
	return x
}
