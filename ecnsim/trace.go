package ecnsim

import (
	"io"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// WriteDropTrace reruns the Figure 1 configuration with a drop-filtered
// packet tracer chained in front of a fresh metrics collector, and writes the
// last n drop events to w as an NS-2-style trace — answering "who died, and
// where". It honors exactly what Figure1 honors (RED default mode, classic
// ECN, serial; every other option applies), so the snapshot and the trace
// come from one configuration. The tracer needs the serial engine, which
// routes every packet through one observer; results are bit-identical at
// every shard count anyway.
func WriteDropTrace(w io.Writer, n int, opts ...Option) error {
	c, err := NewCluster(opts...)
	if err != nil {
		return err
	}
	cfg := figures.Figure1Config(c.experimentConfig())
	cl := experiment.Build(cfg)

	tr := trace.New(n, metrics.New(1<<14, c.seed))
	tr.Filter = trace.DropsOnly()
	cl.Topo.Net.SetObserver(tr)

	cl.RunJob(cfg.Scale.Terasort())
	return tr.Dump(w)
}
