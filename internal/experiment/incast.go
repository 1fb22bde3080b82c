package experiment

import (
	"repro/internal/flow"
	"repro/internal/packet"
	"repro/internal/units"
)

// Incast is the microbenchmark beneath the shuffle's worst case, and the
// scenario behind the paper's burst-absorption discussion (the Cisco
// deep-buffer study it cites): N synchronized senders, one receiver, one
// switch. IncastResult reports completion and loss for one configuration.
type IncastResult struct {
	Result
	Senders int
	Flow    units.ByteSize

	Completed  int
	Last       units.Duration // completion time of the slowest flow
	AggGoodput units.Bandwidth
}

// RunIncast executes senders->1 bulk transfers of flowSize each through the
// configured queue discipline. The fabric shape is fixed: one switch with
// senders+1 hosts, no degradations, run serially, so Scale's nodes, racks,
// spines and shards and Config.Degrade are overridden. Every other Config
// field applies as in Run: buffer, target delay, links, AQM ablations, TCP
// overrides, the hybrid engine and congestion notifications.
func RunIncast(cfg Config, senders int, flowSize units.ByteSize) IncastResult {
	run := cfg
	run.Scale.Nodes = senders + 1
	run.Scale.Racks = 1
	run.Scale.Spines = 0
	run.Scale.Shards = 1
	run.Degrade = nil
	c := Build(run)
	flow.RegisterBulkSink(c.Stacks[senders], 9000, nil)
	dst := packet.Addr{Node: c.Topo.Hosts[senders].ID(), Port: 9000}

	res := IncastResult{Result: Result{Config: cfg}, Senders: senders, Flow: flowSize}
	var last units.Time
	for i := 0; i < senders; i++ {
		flow.StartBulk(c.Stacks[i], dst, flowSize, func(r *flow.BulkResult) {
			if r.Failed {
				return
			}
			res.Completed++
			if r.Done > last {
				last = r.Done
			}
		})
	}
	// Run until idle (RunDeadlock); the deadline bounds a wedged run without
	// executing an event past it.
	c.Run(func() bool { return false }, units.Time(300*units.Second))

	res.Last = units.Duration(last)
	if last > 0 {
		res.AggGoodput = units.Bandwidth(float64(units.ByteSize(senders)*flowSize*8) / last.Seconds())
	}
	res.measure(c)
	return res
}
