// Benchmarks regenerating the paper's tables and figures, plus ablations of
// the design choices called out in DESIGN.md and micro-benchmarks of the
// simulation substrate itself.
//
// The Figure benchmarks run the experiment grid for one sub-figure per
// iteration at a reduced scale and report the figure's headline quantities
// as custom metrics (normalized to the DropTail baselines exactly as in the
// paper). Shapes — who wins, by roughly what factor — are what to compare
// against the paper; see EXPERIMENTS.md.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// benchScale keeps one full figure row affordable per benchmark iteration.
func benchScale() experiment.Scale {
	return experiment.Scale{
		Nodes:     8,
		InputSize: 128 * units.MiB,
		BlockSize: 16 * units.MiB,
		Reducers:  8,
	}
}

// benchDelays is the reduced target-delay sweep used by figure benchmarks:
// aggressive / moderate / loose, bracketing the paper's 500 µs pivot.
func benchDelays() []units.Duration {
	return []units.Duration{
		100 * units.Microsecond,
		500 * units.Microsecond,
		2 * units.Millisecond,
	}
}

// runFigureGrid executes the sweep backing one (metric, buffer) sub-figure
// and reports per-series normalized metrics.
func runFigureGrid(b *testing.B, m figures.Metric, buf cluster.BufferDepth) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiment.NewSweep(benchScale(), 1)
		s.TargetDelays = benchDelays()
		s.Execute()
		if i != b.N-1 {
			continue
		}
		b.StopTimer()
		// Report the moderate-setting (500µs) normalized value per series,
		// and the aggressive one for the marking scheme.
		for _, label := range figures.SeriesOrder {
			series, ok := s.Series[buf][label]
			if !ok {
				continue
			}
			var v float64
			switch m {
			case figures.MetricRuntime:
				v = s.NormalizedRuntime(series[1])
			case figures.MetricThroughput:
				v = s.NormalizedThroughput(series[1])
			case figures.MetricLatency:
				v = s.NormalizedLatency(series[1])
			}
			b.ReportMetric(v, label+"@500µs")
		}
		b.StartTimer()
	}
}

// BenchmarkFigure2a_RuntimeShallow regenerates Fig. 2a: Hadoop runtime vs
// RED target delay on shallow-buffered switches, normalized to
// DropTail/shallow.
func BenchmarkFigure2a_RuntimeShallow(b *testing.B) {
	runFigureGrid(b, figures.MetricRuntime, cluster.Shallow)
}

// BenchmarkFigure2b_RuntimeDeep regenerates Fig. 2b (deep buffers).
func BenchmarkFigure2b_RuntimeDeep(b *testing.B) {
	runFigureGrid(b, figures.MetricRuntime, cluster.Deep)
}

// BenchmarkFigure3a_ThroughputShallow regenerates Fig. 3a: cluster
// throughput, shallow buffers.
func BenchmarkFigure3a_ThroughputShallow(b *testing.B) {
	runFigureGrid(b, figures.MetricThroughput, cluster.Shallow)
}

// BenchmarkFigure3b_ThroughputDeep regenerates Fig. 3b (deep buffers).
func BenchmarkFigure3b_ThroughputDeep(b *testing.B) {
	runFigureGrid(b, figures.MetricThroughput, cluster.Deep)
}

// BenchmarkFigure4a_LatencyShallow regenerates Fig. 4a: network latency,
// shallow buffers, normalized to DropTail/shallow.
func BenchmarkFigure4a_LatencyShallow(b *testing.B) {
	runFigureGrid(b, figures.MetricLatency, cluster.Shallow)
}

// BenchmarkFigure4b_LatencyDeep regenerates Fig. 4b (normalized to
// DropTail/deep).
func BenchmarkFigure4b_LatencyDeep(b *testing.B) {
	runFigureGrid(b, figures.MetricLatency, cluster.Deep)
}

// BenchmarkFigure1_QueueSnapshot regenerates Fig. 1: the composition of a
// switch egress queue during the shuffle under RED's default mode, with the
// ACK drop bias as metrics.
func BenchmarkFigure1_QueueSnapshot(b *testing.B) {
	var snap figures.QueueSnapshot
	for i := 0; i < b.N; i++ {
		snap = figures.Figure1(experiment.Config{
			Scale: benchScale(), TargetDelay: 100 * units.Microsecond, Seed: 1,
		}, 200*units.Microsecond)
	}
	b.ReportMetric(snap.MeanECTShare, "ect-share")
	b.ReportMetric(snap.MeanACKShare, "ack-share")
	b.ReportMetric(snap.AckDropShare, "ack-drop-share")
	b.ReportMetric(snap.MeanDepth, "mean-depth-pkts")
}

// BenchmarkHeadline_SimpleMarking regenerates the Section IV/VI headline:
// the true marking scheme's throughput boost and latency reduction.
func BenchmarkHeadline_SimpleMarking(b *testing.B) {
	var h figures.HeadlineResult
	for i := 0; i < b.N; i++ {
		s := experiment.NewSweep(benchScale(), 1)
		s.TargetDelays = benchDelays()
		s.Execute()
		h = figures.Headline(s, 0)
	}
	b.ReportMetric(h.ThroughputGain, "throughput-vs-droptail")
	b.ReportMetric(100*h.LatencyReduction, "latency-reduction-%")
	b.ReportMetric(h.ShallowReachesDeep, "shallow-vs-deep-throughput")
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md section 6)

// ablationPair runs base and variant configs and reports runtime and
// latency ratios (variant / base).
func ablationPair(b *testing.B, base, variant experiment.Config) {
	b.Helper()
	var rBase, rVar experiment.Result
	for i := 0; i < b.N; i++ {
		rBase = experiment.Run(base)
		rVar = experiment.Run(variant)
	}
	if rBase.Runtime > 0 {
		b.ReportMetric(float64(rVar.Runtime)/float64(rBase.Runtime), "runtime-ratio")
	}
	if rBase.MeanLatency > 0 {
		b.ReportMetric(float64(rVar.MeanLatency)/float64(rBase.MeanLatency), "latency-ratio")
	}
	b.ReportMetric(float64(rVar.RTOEvents), "variant-rto")
	b.ReportMetric(float64(rBase.RTOEvents), "base-rto")
}

func ablationBase() experiment.Config {
	return experiment.Config{
		Setup:       experiment.SetupECNDefault,
		Buffer:      cluster.Shallow,
		TargetDelay: 100 * units.Microsecond,
		Scale:       benchScale(),
		Seed:        1,
	}
}

// BenchmarkAblation_PerByteRED contrasts per-packet thresholds (the paper's
// culprit) with per-byte accounting, under which 40-byte ACKs consume almost
// no threshold budget.
func BenchmarkAblation_PerByteRED(b *testing.B) {
	base := ablationBase()
	variant := base
	variant.ByteMode = true
	ablationPair(b, base, variant)
}

// BenchmarkAblation_InstantaneousRED contrasts EWMA-averaged with
// instantaneous queue measurement (the Wu et al. recommendation).
func BenchmarkAblation_InstantaneousRED(b *testing.B) {
	base := ablationBase()
	variant := base
	variant.Instantaneous = true
	ablationPair(b, base, variant)
}

// BenchmarkAblation_MinRTO10ms asks how much of the default mode's damage is
// the 200 ms minimum RTO (datacenter stacks often tune it down).
func BenchmarkAblation_MinRTO10ms(b *testing.B) {
	base := ablationBase()
	variant := base
	variant.MinRTO = 10 * units.Millisecond
	ablationPair(b, base, variant)
}

// BenchmarkAblation_NoSACK removes selective acknowledgements, degrading
// recovery to classic NewReno.
func BenchmarkAblation_NoSACK(b *testing.B) {
	base := ablationBase()
	base.Setup = experiment.SetupDropTail
	variant := base
	variant.DisableSACK = true
	ablationPair(b, base, variant)
}

// BenchmarkAblation_NoDelayedAck doubles the ACK rate, doubling exposure to
// the per-packet drop bias.
func BenchmarkAblation_NoDelayedAck(b *testing.B) {
	base := ablationBase()
	variant := base
	variant.DisableDelAck = true
	ablationPair(b, base, variant)
}

// BenchmarkAblation_150ByteAcks uses the paper's quoted ACK wire size; with
// per-packet thresholds it must not change the drop bias (that is the
// point), and with per-byte it would.
func BenchmarkAblation_150ByteAcks(b *testing.B) {
	base := ablationBase()
	variant := base
	variant.AckWireSize = 150
	ablationPair(b, base, variant)
}

// ----------------------------------------------------------------------
// Substrate micro-benchmarks

// BenchmarkEngineScheduleRun measures raw event throughput of the
// discrete-event engine; one op is one event.
//
//   - ties: batches of 1024 events on 64 timestamps, nearly every
//     comparison a tie in firing time.
//   - hold: the classic hold model, shaped like fabric traffic. 640 events
//     stay pending; each one that fires schedules one child a uniform
//     1–64 µs later, so about 1% of them land on an instant that already
//     has an event. Every 8th event also re-arms one of 64 timers 10 ms
//     out, which is cancelled before it fires, like an RTO.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.Run("ties", func(b *testing.B) {
		eng := sim.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Schedule(eng.Now()+sim.Time(i%64), func() {})
			if i%1024 == 1023 {
				eng.Run()
			}
		}
		eng.Run()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	})
	b.Run("hold", func(b *testing.B) {
		const pending, timers = 640, 64
		eng := sim.New()
		rng := rand.New(rand.NewSource(1))
		rto := make([]*sim.Timer, timers)
		for i := range rto {
			rto[i] = sim.NewTimer(eng, func() {})
		}
		fired := 0
		var tick func(any)
		tick = func(any) {
			eng.AfterArg(units.Duration(1+rng.Intn(64_000))*units.Nanosecond, tick, nil)
			if fired++; fired%8 == 0 {
				rto[fired/8%timers].Reset(10 * units.Millisecond)
			}
		}
		for i := 0; i < pending; i++ {
			eng.AfterArg(units.Duration(1+rng.Intn(64_000))*units.Nanosecond, tick, nil)
		}
		for i := 0; i < 16*pending; i++ { // grow the slabs to steady state
			eng.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	})
}

// BenchmarkREDEnqueueDequeue measures the RED fast path.
func BenchmarkREDEnqueueDequeue(b *testing.B) {
	cfg := qdisc.DefaultREDConfig(1000, 10*units.Gbps)
	cfg.Seed = 1
	q := qdisc.NewRED(cfg)
	p := &packet.Packet{Flags: packet.FlagACK, Payload: 1460, ECN: packet.ECT0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := *p
		if v := q.Enqueue(units.Time(i), &pkt); !v.Dropped() {
			q.Dequeue(units.Time(i))
		}
	}
}

// BenchmarkSimpleMarkEnqueueDequeue measures the marking fast path.
func BenchmarkSimpleMarkEnqueueDequeue(b *testing.B) {
	q := qdisc.NewSimpleMark(1000, 100)
	p := &packet.Packet{Flags: packet.FlagACK, Payload: 1460, ECN: packet.ECT0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := *p
		if v := q.Enqueue(units.Time(i), &pkt); !v.Dropped() {
			q.Dequeue(units.Time(i))
		}
	}
}

// BenchmarkTCPBulkTransfer measures end-to-end simulated TCP goodput
// (simulation cost per payload byte; b.SetBytes makes MB/s comparable).
func BenchmarkTCPBulkTransfer(b *testing.B) {
	const size = 4 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		cl := topo.Build(eng, topo.Config{
			Nodes:     2,
			LinkRate:  10 * units.Gbps,
			LinkDelay: 5 * units.Microsecond,
			SwitchQueue: func(label string, rate units.Bandwidth) qdisc.Qdisc {
				return qdisc.NewDropTail(1000)
			},
		})
		stats := &tcp.Stats{}
		s0 := tcp.NewStack(cl.Hosts[0], tcp.DefaultConfig(tcp.Reno), stats)
		s1 := tcp.NewStack(cl.Hosts[1], tcp.DefaultConfig(tcp.Reno), stats)
		s1.Listen(80, func(c *tcp.Conn) {})
		c := s0.Dial(packet.Addr{Node: cl.Hosts[1].ID(), Port: 80})
		c.Send(size)
		c.Close()
		eng.Run()
	}
}

// BenchmarkTerasortSmall measures a complete small job end to end.
func BenchmarkTerasortSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.Run(experiment.Config{
			Setup:       experiment.SetupDropTail,
			Buffer:      cluster.Shallow,
			TargetDelay: 500 * units.Microsecond,
			Scale: experiment.Scale{
				Nodes: 4, InputSize: 32 * units.MiB, BlockSize: 8 * units.MiB, Reducers: 4,
			},
			Seed: 1,
		})
	}
}

// BenchmarkIncastScaling runs the synchronized-incast microbenchmark that
// underlies the shuffle's worst case, for DropTail vs the marking scheme,
// and reports aggregate goodput (Gbps) and drops.
func BenchmarkIncastScaling(b *testing.B) {
	var dt, sm experiment.IncastResult
	for i := 0; i < b.N; i++ {
		dt = experiment.RunIncast(experiment.Config{
			Setup: experiment.SetupDropTail, Buffer: cluster.Shallow,
			TargetDelay: 100 * units.Microsecond, Seed: 1,
		}, 12, 2*units.MiB)
		sm = experiment.RunIncast(experiment.Config{
			Setup: experiment.SetupDCTCPSimpleMark, Buffer: cluster.Shallow,
			TargetDelay: 100 * units.Microsecond, Seed: 1,
		}, 12, 2*units.MiB)
	}
	b.ReportMetric(float64(dt.AggGoodput)/1e9, "droptail-gbps")
	b.ReportMetric(float64(sm.AggGoodput)/1e9, "simplemark-gbps")
	b.ReportMetric(float64(dt.OverflowDrops), "droptail-drops")
	b.ReportMetric(float64(sm.OverflowDrops+sm.EarlyDrops), "simplemark-drops")
}

// BenchmarkMixedCluster reports the co-located RPC service's tail latency
// during a Terasort for the bufferbloat and marking regimes.
func BenchmarkMixedCluster(b *testing.B) {
	var bloat, marked experiment.MixedResult
	for i := 0; i < b.N; i++ {
		bloat = experiment.RunMixed(experiment.Config{
			Setup: experiment.SetupDropTail, Buffer: cluster.Deep,
			TargetDelay: 100 * units.Microsecond, Scale: benchScale(), Seed: 1,
		})
		marked = experiment.RunMixed(experiment.Config{
			Setup: experiment.SetupDCTCPSimpleMark, Buffer: cluster.Shallow,
			TargetDelay: 100 * units.Microsecond, Scale: benchScale(), Seed: 1,
		})
	}
	b.ReportMetric(bloat.RPCP99.Seconds()*1e6, "droptail-deep-rpc-p99-µs")
	b.ReportMetric(marked.RPCP99.Seconds()*1e6, "simplemark-rpc-p99-µs")
}
