package main

import "strings"

// layers are the program's layers in report order, named after its packages.
// The engine reaches netsim, qdisc, tcp and flow only through callbacks it
// schedules, so a layer's share of a run is read from profile stacks rather
// than from spans around calls.
var layers = []string{
	"sim", "shard", "netsim", "qdisc", "tcp", "packet", "flow",
	"mapred", "metrics", "build", "harness", "gc", "other",
}

// modulePrefix starts every function name of the benchmarked module.
const modulePrefix = "repro/"

// packageLayer maps a repro package (its last path element) to its layer.
// Packages absent here and not in transparentPackages count as "other".
var packageLayer = map[string]string{
	"sim":        "sim",
	"netsim":     "netsim",
	"qdisc":      "qdisc",
	"tcp":        "tcp",
	"packet":     "packet",
	"flow":       "flow",
	"mapred":     "mapred",
	"metrics":    "metrics",
	"stats":      "metrics",
	"topo":       "build",
	"cluster":    "build",
	"experiment": "harness",
	"ecnsim":     "harness",
	"pool":       "harness",
}

// shardFuncs are the function-name prefixes (package.receiver or
// package.function) that make up the sharded loop's coordination: the group
// loop, the worker crew and its barrier, and the netsim cross-shard inbox
// drain. They take precedence over their package's layer.
var shardFuncs = []string{
	"sim.(*Group)",
	"pool.(*ShardSet)",
	"netsim.(*Network).DrainCrossShard",
}

// spinFuncs are the barrier's busy-wait loops: a sample whose innermost
// module frame is one of these is waiting at the barrier, not running a
// shard's events.
var spinFuncs = []string{
	"pool.(*ShardSet).worker",
	"pool.(*ShardSet).Round",
}

// transparentPackages hold value helpers (units, seeded random streams) that
// every layer calls; like runtime frames, their samples go to the caller.
var transparentPackages = map[string]bool{"units": true, "rng": true}

// Some samples are charged by an outer frame rather than the innermost one.
var (
	// gcRoots are the runtime's background collector goroutines. Work they
	// do is charged to "gc"; assists and allocation slow paths run on the
	// allocating goroutine and stay with its layer.
	gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}
	// buildRoot constructs a cluster: the fabric, its route tables, queues
	// and stacks. Everything under it is the fabric build, whichever
	// package's constructor runs.
	buildRoot = modulePrefix + "internal/cluster.New"
	// yieldRoot is the scheduler half of runtime.Gosched. It runs on the
	// system stack after mcall, so its samples carry no goroutine frames;
	// in the benchmarked workloads only the barrier's spin loops yield.
	yieldRoot = "runtime.gosched_m"
)

// classify returns the layer a profile stack (leaf first) is charged to and
// whether the sample is barrier spinning.
func classify(stack []string) (layer string, spin bool) {
	for _, fn := range stack {
		switch {
		case fn == yieldRoot:
			return "shard", true
		case fn == buildRoot || strings.HasPrefix(fn, buildRoot+"."):
			return "build", false
		}
		for _, root := range gcRoots {
			if fn == root {
				return "gc", false
			}
		}
	}
	for _, fn := range stack {
		local, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue // runtime or standard library: charge the caller
		}
		// "internal/tcp.(*Conn).trySend" -> "tcp.(*Conn).trySend"
		if i := strings.LastIndexByte(local, '/'); i >= 0 {
			local = local[i+1:]
		}
		pkg, _, _ := strings.Cut(local, ".")
		if transparentPackages[pkg] {
			continue
		}
		for _, f := range spinFuncs {
			if local == f || strings.HasPrefix(local, f+".") {
				return "shard", true
			}
		}
		for _, f := range shardFuncs {
			if strings.HasPrefix(local, f) {
				return "shard", false
			}
		}
		if l, ok := packageLayer[pkg]; ok {
			return l, false
		}
		return "other", false
	}
	return "other", false
}
