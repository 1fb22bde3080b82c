package ecnsim

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/trace"
)

// WriteDropTrace reruns the Figure 1 configuration with a drop-filtered
// packet tracer subscribed beside the cluster's own observers (its metrics,
// and the fluid controller and notifier when Hybrid or Notify is set), and
// writes the last n drop events to w as an NS-2-style trace — answering "who
// died, and where". Tracing changes nothing the run does. It honors exactly
// what Figure1 honors (RED default mode, classic ECN, serial; every other
// option applies), so the snapshot and the trace come from one
// configuration. The tracer needs the serial engine, whose one shard sees
// every packet; results are bit-identical at every shard count anyway.
func WriteDropTrace(w io.Writer, n int, opts ...Option) error {
	tr, _, err := traceDrops(n, opts...)
	if err != nil {
		return err
	}
	return tr.Dump(w)
}

// traceDrops runs WriteDropTrace's configuration and returns its tracer and
// the finished cluster.
func traceDrops(n int, opts ...Option) (*trace.Tracer, *cluster.Cluster, error) {
	c, err := NewCluster(opts...)
	if err != nil {
		return nil, nil, err
	}
	cfg := figures.Figure1Config(c.experimentConfig())
	cl := experiment.Build(cfg)

	tr := trace.New(n)
	tr.Filter = trace.DropsOnly()
	cl.Topo.Net.Subscribe(tr)

	cl.RunJob(cfg.Scale.Terasort())
	return tr, cl, nil
}
