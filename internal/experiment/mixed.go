package experiment

import (
	"repro/internal/flow"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/units"
)

// MixedResult reports the paper's motivating scenario quantitatively: a
// latency-sensitive RPC service sharing the fabric with a Hadoop job. The
// paper's introduction cites IoT/SQL-on-Hadoop services with millisecond
// requirements; MixedResult says what they would actually observe. The
// embedded Result is the job's view, as RunJob reports it.
type MixedResult struct {
	Result

	// RPC latency distribution over the job's lifetime.
	RPCCount  uint64
	RPCMean   units.Duration
	RPCP50    units.Duration
	RPCP99    units.Duration
	RPCMax    units.Duration
	RPCFailed int
}

// RunMixed executes a Terasort with an RPC probe (128 B request / 4 KiB
// response every 2 ms) between the first two nodes, returning both the job
// and service views.
func RunMixed(cfg Config) MixedResult {
	return RunMixedInterval(cfg, 2*units.Millisecond)
}

// RunMixedInterval is RunMixed with a configurable probe period.
func RunMixedInterval(cfg Config, interval units.Duration) MixedResult {
	c := Build(cfg)
	flow.RegisterRPCServer(c.Stacks[1], 7000, 128, 4096)
	probe := flow.StartRPCClient(c.Stacks[0],
		packet.Addr{Node: c.Topo.Hosts[1].ID(), Port: 7000},
		flow.RPCConfig{ReqSize: 128, RespSize: 4096, Interval: interval})

	job := c.RunJob(cfg.Scale.Terasort())
	probe.Stop()

	res := MixedResult{Result: jobResult(cfg, c, job)}
	sample := stats.NewSample()
	for i := range probe.Results {
		if probe.Results[i].Failed {
			res.RPCFailed++
			continue
		}
		sample.Add(probe.Results[i].Latency().Seconds())
	}
	res.RPCCount = sample.N()
	res.RPCMean = seconds(sample.Mean())
	res.RPCP50 = seconds(sample.Quantile(0.5))
	res.RPCP99 = seconds(sample.Quantile(0.99))
	res.RPCMax = seconds(sample.Max())
	return res
}
