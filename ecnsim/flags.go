package ecnsim

import (
	"flag"
	"time"
)

// FlagGroup selects which blocks of the shared CLI surface a FlagBinder
// registers. Groups compose with |; every binder implicitly includes
// FlagsRun, so -shards behaves identically across binaries.
type FlagGroup uint

// Flag groups.
const (
	// FlagsQueue is the queue configuration: -queue, -mode, -transport.
	FlagsQueue FlagGroup = 1 << iota
	// FlagsBuffer is the switch buffer depth: -buffer.
	FlagsBuffer
	// FlagsFabric is the fabric shape: -racks, -spines.
	FlagsFabric
	// FlagsWorkload is the Terasort workload: -target, -nodes, -input,
	// -block, -reducers.
	FlagsWorkload
	// FlagsSeed is the simulation seed: -seed.
	FlagsSeed
	// FlagsTenant is the multi-tenant workload engine: -jobs, -arrival,
	// -rpc-clients.
	FlagsTenant
	// FlagsHybrid is the hybrid fluid/packet engine: -hybrid,
	// -fluid-threshold.
	FlagsHybrid
	// FlagsNotify is the switch-originated congestion-notification surface:
	// -notify, -notify-threshold, -reroute, -throttle.
	FlagsNotify
	// FlagsRun is the run-execution surface: -shards. Every FlagBinder
	// includes it whether or not it is requested — how a run executes is
	// never a per-binary decision.
	FlagsRun
)

// FlagSet is the shared CLI surface: every command binds the same flag names
// with the same parsing, so -queue, -input, -target and friends behave
// identically across binaries. Set fields before binding to change a
// command's defaults; resolve the values after flag parsing.
//
// Commands compose the surface through a FlagBinder (NewFlagBinder), which
// binds exactly the groups the command honors — no flag is accepted and then
// silently ignored.
type FlagSet struct {
	Queue     string        // -queue: droptail | red | simplemark | codel | pie
	Mode      string        // -mode: default | ece-bit | ack+syn
	Transport string        // -transport: tcp | tcp-ecn | dctcp ("" = auto by queue)
	BufferStr string        // -buffer: shallow | deep
	Target    time.Duration // -target
	Nodes     int           // -nodes
	Racks     int           // -racks
	Spines    int           // -spines
	Input     string        // -input, e.g. "1GiB"
	Block     string        // -block, e.g. "64MiB" ("" = input/nodes)
	Reducers  int           // -reducers
	SeedVal   uint64        // -seed

	// Shards is the event-loop shard request (-shards): 1 = serial,
	// 0 = auto (sized to the machine on leaf-spine fabrics), n > 1 =
	// explicit. Results are bit-identical at every value.
	Shards int

	// Multi-tenant workload flags (0 / "" = scenario defaults).
	Jobs       int    // -jobs: max batch jobs the arrival process admits
	Arrival    string // -arrival: "poisson:400ms" | "fixed:250ms" | "poisson"
	RPCClients int    // -rpc-clients: open-loop RPC fleet size

	// Hybrid engine flags.
	Hybrid         bool    // -hybrid: enable the fluid/packet hybrid engine
	FluidThreshold float64 // -fluid-threshold: fluid utilization threshold in [0, 1]

	// Congestion-notification flags.
	Notify          bool // -notify: enable switch-originated notifications (both mechanisms)
	NotifyThreshold int  // -notify-threshold: occupancy (packets) that triggers a notification
	Reroute         bool // -reroute: congestion-aware ECMP reselection (implies -notify)
	Throttle        bool // -throttle: notification-driven source gating (implies -notify)
}

// DefaultFlags returns the paper-testbed defaults (16 nodes, 1 GiB Terasort,
// DropTail, shallow buffers, 500 µs target, serial event loop).
func DefaultFlags() *FlagSet {
	return &FlagSet{
		Queue:     "droptail",
		Mode:      "default",
		Transport: "",
		BufferStr: "shallow",
		Target:    500 * time.Microsecond,
		Nodes:     16,
		Racks:     1,
		Spines:    0,
		Input:     "1GiB",
		Block:     "64MiB",
		Reducers:  32,
		SeedVal:   1,
		Shards:    1,

		FluidThreshold: 0.9,

		NotifyThreshold: 64,
	}
}

// FlagBinder is the one-stop run-configuration surface for commands: a
// FlagSet plus the groups the command honors. Bind registers exactly those
// groups' flags; Options resolves exactly those groups' values, so unbound
// groups keep the builder's defaults instead of overriding them with the
// FlagSet's.
type FlagBinder struct {
	*FlagSet
	groups FlagGroup
}

// NewFlagBinder returns a binder over the paper-testbed defaults covering
// the requested groups plus, always, FlagsRun (-shards).
func NewFlagBinder(groups FlagGroup) *FlagBinder {
	return &FlagBinder{FlagSet: DefaultFlags(), groups: groups | FlagsRun}
}

// Groups returns the groups the binder covers (including the implicit
// FlagsRun).
func (b *FlagBinder) Groups() FlagGroup { return b.groups }

// Bind registers the binder's groups on fs with the FlagSet's current
// values as defaults.
func (b *FlagBinder) Bind(fs *flag.FlagSet) { b.FlagSet.bindGroups(fs, b.groups) }

// Options resolves the parsed values of the binder's groups into builder
// options, reporting the first malformed value.
func (b *FlagBinder) Options() ([]Option, error) { return b.FlagSet.optionsFor(b.groups) }

// bindGroups registers the flags of the selected groups. Registration order
// is irrelevant to the flag package (usage output sorts by name).
func (f *FlagSet) bindGroups(fs *flag.FlagSet, g FlagGroup) {
	if g&FlagsQueue != 0 {
		fs.StringVar(&f.Queue, "queue", f.Queue, "queue discipline: droptail | red | simplemark | codel | pie")
		fs.StringVar(&f.Mode, "mode", f.Mode, "AQM protection mode: default | ece-bit | ack+syn")
		fs.StringVar(&f.Transport, "transport", f.Transport, "tcp | tcp-ecn | dctcp (default: tcp for droptail, tcp-ecn otherwise)")
	}
	if g&FlagsBuffer != 0 {
		fs.StringVar(&f.BufferStr, "buffer", f.BufferStr, "switch buffer depth: shallow (1MB/port) | deep (10MB/port)")
	}
	if g&FlagsWorkload != 0 {
		fs.DurationVar(&f.Target, "target", f.Target, "AQM target delay")
		fs.IntVar(&f.Nodes, "nodes", f.Nodes, "cluster size")
		fs.StringVar(&f.Input, "input", f.Input, "Terasort input size (e.g. 1GiB)")
		fs.StringVar(&f.Block, "block", f.Block, "HDFS block size (empty = input/nodes)")
		fs.IntVar(&f.Reducers, "reducers", f.Reducers, "reduce tasks")
	}
	if g&FlagsFabric != 0 {
		fs.IntVar(&f.Racks, "racks", f.Racks, "racks (0/1 = single-switch star)")
		fs.IntVar(&f.Spines, "spines", f.Spines, "spine switches above the racks (0 = no spine tier; needs -racks >= 2)")
	}
	if g&FlagsSeed != 0 {
		fs.Uint64Var(&f.SeedVal, "seed", f.SeedVal, "simulation seed")
	}
	if g&FlagsTenant != 0 {
		fs.IntVar(&f.Jobs, "jobs", f.Jobs, "max batch jobs the open-loop arrival process admits (enables the multi-tenant grid; 0 = scenario default)")
		fs.StringVar(&f.Arrival, "arrival", f.Arrival, `job arrival process, "poisson:400ms" or "fixed:250ms" (takes effect with -jobs/-rpc-clients or a tenant scenario)`)
		fs.IntVar(&f.RPCClients, "rpc-clients", f.RPCClients, "open-loop RPC fleet size (enables the multi-tenant grid; 0 = scenario default)")
	}
	if g&FlagsHybrid != 0 {
		fs.BoolVar(&f.Hybrid, "hybrid", f.Hybrid, "run bulk transfers on the fluid/packet hybrid engine (bit-identical at every shard count)")
		fs.Float64Var(&f.FluidThreshold, "fluid-threshold", f.FluidThreshold, "hybrid fluid utilization threshold in [0, 1]; 0 keeps every transfer at packet level")
	}
	if g&FlagsNotify != 0 {
		fs.BoolVar(&f.Notify, "notify", f.Notify, "switch-originated congestion notifications (reroute + throttle unless one is selected)")
		fs.IntVar(&f.NotifyThreshold, "notify-threshold", f.NotifyThreshold, "queue occupancy (packets) that triggers a notification; takes effect with -notify/-reroute/-throttle")
		fs.BoolVar(&f.Reroute, "reroute", f.Reroute, "congestion-aware ECMP path reselection (implies -notify)")
		fs.BoolVar(&f.Throttle, "throttle", f.Throttle, "notification-driven source injection gating (implies -notify)")
	}
	if g&FlagsRun != 0 {
		fs.IntVar(&f.Shards, "shards", f.Shards, "event-loop shards: 1 = serial, 0 = auto (sized to the machine on leaf-spine fabrics), n > 1 = explicit leaf-spine partitions; results are bit-identical at every value")
	}
}

// optionsFor resolves the selected groups' values into builder options.
func (f *FlagSet) optionsFor(g FlagGroup) ([]Option, error) {
	var opts []Option
	if g&FlagsQueue != 0 {
		queue, err := ParseQueue(f.Queue)
		if err != nil {
			return nil, err
		}
		protect, err := ParseProtect(f.Mode)
		if err != nil {
			return nil, err
		}
		opts = append(opts, Queue(queue))
		if protect != NoProtection {
			opts = append(opts, Protect(protect))
		}
		if f.Transport != "" {
			transport, err := ParseTransport(f.Transport)
			if err != nil {
				return nil, err
			}
			opts = append(opts, Transport(transport))
		}
	}
	if g&FlagsBuffer != 0 {
		buffer, err := ParseBuffer(f.BufferStr)
		if err != nil {
			return nil, err
		}
		opts = append(opts, Buffer(buffer))
	}
	if g&FlagsWorkload != 0 {
		input, err := ParseSize(f.Input)
		if err != nil {
			return nil, err
		}
		var block int64
		if f.Block != "" {
			if block, err = ParseSize(f.Block); err != nil {
				return nil, err
			}
		}
		opts = append(opts, TargetDelay(f.Target), Nodes(f.Nodes),
			InputSize(input), BlockSize(block), Reducers(f.Reducers))
	}
	if g&FlagsFabric != 0 {
		opts = append(opts, Racks(f.Racks), Spines(f.Spines))
	}
	if g&FlagsSeed != 0 {
		opts = append(opts, Seed(f.SeedVal))
	}
	if g&FlagsTenant != 0 {
		tenant, err := f.TenantOptions()
		if err != nil {
			return nil, err
		}
		opts = append(opts, tenant...)
	}
	if g&FlagsHybrid != 0 && f.Hybrid {
		// -fluid-threshold only takes effect with -hybrid, mirroring the
		// builder (FluidThreshold is a resolved default otherwise).
		opts = append(opts, Hybrid(), FluidThreshold(f.FluidThreshold))
	}
	if g&FlagsNotify != 0 && (f.Notify || f.Reroute || f.Throttle) {
		// -notify-threshold only takes effect with an enabler, mirroring the
		// builder (NotifyThreshold is a resolved default otherwise).
		if f.Reroute {
			opts = append(opts, Reroute())
		}
		if f.Throttle {
			opts = append(opts, Throttle())
		}
		if !f.Reroute && !f.Throttle {
			opts = append(opts, Notify())
		}
		opts = append(opts, NotifyThreshold(f.NotifyThreshold))
	}
	if g&FlagsRun != 0 {
		if f.Shards == 0 {
			opts = append(opts, ShardAuto())
		} else {
			// Shards itself rejects negatives with a pointer at ShardAuto.
			opts = append(opts, Shards(f.Shards))
		}
	}
	return opts, nil
}

// TenantOptions resolves the tenant flags into builder options, reporting a
// malformed -arrival spec. Unset flags contribute no options, so scenario
// defaults still apply.
func (f *FlagSet) TenantOptions() ([]Option, error) {
	var opts []Option
	if f.Jobs > 0 {
		opts = append(opts, JobArrivals(f.Jobs))
	}
	if f.Arrival != "" {
		kind, mean, err := ParseArrival(f.Arrival)
		if err != nil {
			return nil, err
		}
		if mean > 0 {
			opts = append(opts, Arrivals(kind, mean))
		} else {
			// Bare kind ("-arrival fixed"): switch the distribution only,
			// leaving the builder's default mean in force.
			opts = append(opts, func(c *Cluster) error { c.arrivalKind = kind; return nil })
		}
	}
	if f.RPCClients > 0 {
		opts = append(opts, RPCClients(f.RPCClients))
	}
	return opts, nil
}
