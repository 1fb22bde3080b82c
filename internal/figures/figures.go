// Package figures regenerates every table and figure of the paper from
// simulation sweeps, as plain-text tables whose series mirror the paper's
// plots. See EXPERIMENTS.md for the paper-vs-measured record.
package figures

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/units"
)

// SeriesOrder fixes the series ordering in figure tables.
var SeriesOrder = []string{
	"ecn-default", "ecn-ece-bit", "ecn-ack+syn",
	"dctcp-default", "dctcp-ece-bit", "dctcp-ack+syn",
	"ecn-simplemark", "dctcp-simplemark",
}

// TableI renders the paper's Table I (ECN codepoints on the TCP header)
// directly from the packet model.
func TableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — ECN codepoints on TCP header\n")
	fmt.Fprintf(&b, "%-10s %-6s %s\n", "Codepoint", "Name", "Description")
	fmt.Fprintf(&b, "%-10s %-6s %s\n", "01", packet.FlagECE.String(), "ECN-Echo flag")
	fmt.Fprintf(&b, "%-10s %-6s %s\n", "10", packet.FlagCWR.String(), "Congestion Window Reduced")
	return b.String()
}

// TableII renders the paper's Table II (ECN codepoints on the IP header).
func TableII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II — ECN codepoints on IP header\n")
	fmt.Fprintf(&b, "%-10s %-9s %s\n", "Codepoint", "Name", "Description")
	rows := []struct {
		bits string
		e    packet.ECN
		desc string
	}{
		{"00", packet.NotECT, "Non ECN-Capable Transport"},
		{"10", packet.ECT0, "ECN Capable Transport"},
		{"01", packet.ECT1, "ECN Capable Transport"},
		{"11", packet.CE, "Congestion Encountered"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-9s %s\n", r.bits, r.e.String(), r.desc)
	}
	return b.String()
}

// Metric selects which of the paper's three quantities a figure plots.
type Metric uint8

// Figure metrics.
const (
	MetricRuntime    Metric = iota // Figure 2
	MetricThroughput               // Figure 3
	MetricLatency                  // Figure 4
)

// name returns the figure family name.
func (m Metric) name() string {
	switch m {
	case MetricRuntime:
		return "Hadoop Runtime"
	case MetricThroughput:
		return "Cluster Throughput"
	case MetricLatency:
		return "Network Latency"
	}
	return "?"
}

// normalized extracts the normalized metric value for one run.
func normalized(s *experiment.Sweep, m Metric, r experiment.Result) float64 {
	switch m {
	case MetricRuntime:
		return s.NormalizedRuntime(r)
	case MetricThroughput:
		return s.NormalizedThroughput(r)
	case MetricLatency:
		return s.NormalizedLatency(r)
	}
	return 0
}

// RenderFigure renders one sub-figure (metric x buffer depth) from an
// executed sweep, in the paper's normalization. The dashed-line reference the
// paper draws on deep-buffer plots is included as a footer.
func RenderFigure(s *experiment.Sweep, m Metric, buf cluster.BufferDepth, figNo string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. %s — %s (%s buffers)", figNo, m.name(), buf)
	switch m {
	case MetricRuntime, MetricThroughput:
		fmt.Fprintf(&b, " — normalized to DropTail/shallow\n")
	case MetricLatency:
		fmt.Fprintf(&b, " — normalized to DropTail/%s\n", buf)
	}
	fmt.Fprintf(&b, "%-18s", "target delay")
	for _, d := range s.TargetDelays {
		fmt.Fprintf(&b, "%9s", d.String())
	}
	fmt.Fprintln(&b)
	for _, label := range SeriesOrder {
		series, ok := s.Series[buf][label]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-18s", label)
		for _, r := range series {
			fmt.Fprintf(&b, "%9.3f", normalized(s, m, r))
		}
		fmt.Fprintln(&b)
	}
	// Reference lines.
	switch {
	case m == MetricRuntime && buf == cluster.Deep:
		fmt.Fprintf(&b, "(dashed) droptail/deep runtime: %.3f\n",
			s.NormalizedRuntime(s.DropTail[cluster.Deep]))
	case m == MetricThroughput && buf == cluster.Deep:
		fmt.Fprintf(&b, "(dashed) droptail/deep throughput: %.3f\n",
			s.NormalizedThroughput(s.DropTail[cluster.Deep]))
	case m == MetricLatency && buf == cluster.Deep:
		ratio := float64(s.DropTail[cluster.Shallow].MeanLatency) /
			float64(s.DropTail[cluster.Deep].MeanLatency)
		fmt.Fprintf(&b, "(dashed) droptail/shallow latency vs droptail/deep: %.3f\n", ratio)
	}
	return b.String()
}

// Headline computes the Section IV / VI headline numbers: SimpleMark's
// throughput gain over DropTail and its latency reduction.
type HeadlineResult struct {
	ThroughputGain   float64 // simplemark vs droptail (same buffer), >1 is a boost
	LatencyReduction float64 // 1 - normalized latency, paper claims ~0.85 overall
	// ShallowReachesDeep compares effective cluster speed via runtime (the
	// paper: runtime is inversely proportional to effective throughput):
	// droptail-deep runtime divided by simplemark-shallow runtime. 1.0
	// means the commodity shallow switch matches the deep-buffer switch.
	ShallowReachesDeep float64
}

// Headline extracts the headline comparisons from an executed sweep at the
// given marking target delay index.
func Headline(s *experiment.Sweep, delayIdx int) HeadlineResult {
	sm := s.Series[cluster.Shallow]["ecn-simplemark"][delayIdx]
	dtShallow := s.DropTail[cluster.Shallow]
	dtDeep := s.DropTail[cluster.Deep]
	var h HeadlineResult
	if dtShallow.ThroughputPerNode > 0 {
		h.ThroughputGain = float64(sm.ThroughputPerNode) / float64(dtShallow.ThroughputPerNode)
	}
	// Latency reduction measured against the bufferbloated deep DropTail,
	// which is the regime the 85% claim addresses.
	deepSM := s.Series[cluster.Deep]["ecn-simplemark"][delayIdx]
	if dtDeep.MeanLatency > 0 {
		h.LatencyReduction = 1 - float64(deepSM.MeanLatency)/float64(dtDeep.MeanLatency)
	}
	if sm.Runtime > 0 {
		h.ShallowReachesDeep = float64(dtDeep.Runtime) / float64(sm.Runtime)
	}
	return h
}

// ----------------------------------------------------------------------
// Figure 1: queue-composition snapshot

// QueueSnapshot is the Figure 1 reproduction: the composition of a switch
// egress queue during the shuffle steady state, plus the drop breakdown that
// tells the paper's story (ECT data marked and kept; non-ECT ACKs dropped).
type QueueSnapshot struct {
	// Samples is the number of queue observations taken.
	Samples int
	// MeanDepth and MaxDepth are in packets.
	MeanDepth, MaxDepth float64
	// MeanECTShare is the average fraction of queued packets that are
	// ECT-capable data.
	MeanECTShare float64
	// MeanACKShare is the average fraction that are non-ECT pure ACKs.
	MeanACKShare float64
	// Drop accounting across the run.
	DataDrops, AckDrops, SynDrops uint64
	AckDropShare                  float64
}

// Figure1Config forces the Figure 1 setup on cfg: RED in its default
// (unprotected) mode under classic ECN, run serially so the control engine
// can sample a port and a tracer can observe every packet. Everything else
// in cfg applies.
func Figure1Config(cfg experiment.Config) experiment.Config {
	cfg.Setup = experiment.SetupECNDefault
	cfg.Scale.Shards = 1
	return cfg
}

// Figure1 runs a Terasort under Figure1Config(cfg) — the misbehaving
// configuration — and samples one victim egress queue every interval.
func Figure1(cfg experiment.Config, interval units.Duration) QueueSnapshot {
	cfg = Figure1Config(cfg)
	c := experiment.Build(cfg)

	var snap QueueSnapshot
	port := c.Ports()[0]
	sampler := func() {
		q, ok := port.Queue().(qdisc.Snapshotter)
		if !ok {
			return
		}
		pkts := q.Snapshot()
		if len(pkts) == 0 {
			return
		}
		var ect, ack int
		for _, p := range pkts {
			switch {
			case p.ECN.ECTCapable():
				ect++
			case p.IsPureACK():
				ack++
			}
		}
		n := float64(len(pkts))
		snap.Samples++
		snap.MeanDepth += n
		if n > snap.MaxDepth {
			snap.MaxDepth = n
		}
		snap.MeanECTShare += float64(ect) / n
		snap.MeanACKShare += float64(ack) / n
	}
	// Periodic sampling driven alongside the job.
	var tick func()
	tick = func() {
		sampler()
		c.Engine.After(interval, tick)
	}
	c.Engine.After(interval, tick)

	c.RunJob(cfg.Scale.Terasort())

	if snap.Samples > 0 {
		snap.MeanDepth /= float64(snap.Samples)
		snap.MeanECTShare /= float64(snap.Samples)
		snap.MeanACKShare /= float64(snap.Samples)
	}
	snap.DataDrops = c.Metrics.EarlyDropped.Get(packet.KindData) + c.Metrics.OverflowDropped.Get(packet.KindData)
	snap.AckDrops = c.Metrics.EarlyDropped.Get(packet.KindPureACK) + c.Metrics.OverflowDropped.Get(packet.KindPureACK)
	snap.SynDrops = c.Metrics.EarlyDropped.Get(packet.KindSYN) + c.Metrics.EarlyDropped.Get(packet.KindSYNACK) +
		c.Metrics.OverflowDropped.Get(packet.KindSYN) + c.Metrics.OverflowDropped.Get(packet.KindSYNACK)
	snap.AckDropShare = c.Metrics.AckDropShare()
	return snap
}

// Render formats the snapshot like the paper's Figure 1 caption.
func (q QueueSnapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — Typical snapshot of a switch egress queue during shuffle (RED default mode)\n")
	fmt.Fprintf(&b, "samples=%d  mean depth=%.1f pkts  max depth=%.0f pkts\n", q.Samples, q.MeanDepth, q.MaxDepth)
	fmt.Fprintf(&b, "queue composition: %.1f%% ECT data, %.1f%% non-ECT ACKs\n", 100*q.MeanECTShare, 100*q.MeanACKShare)
	fmt.Fprintf(&b, "drops: data=%d acks=%d syn=%d  (ACK share of all drops: %.1f%%)\n",
		q.DataDrops, q.AckDrops, q.SynDrops, 100*q.AckDropShare)
	return b.String()
}

// SortedLabels returns the series labels present in a sweep, in render
// order, for callers that need to iterate.
func SortedLabels(s *experiment.Sweep, buf cluster.BufferDepth) []string {
	var out []string
	for _, l := range SeriesOrder {
		if _, ok := s.Series[buf][l]; ok {
			out = append(out, l)
		}
	}
	return out
}
