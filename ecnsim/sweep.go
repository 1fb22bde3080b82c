package ecnsim

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/mapred"
)

// FigureMetric selects which of the paper's three quantities a figure plots.
type FigureMetric uint8

// Figure metrics.
const (
	RuntimeMetric    FigureMetric = iota // Figure 2
	ThroughputMetric                     // Figure 3
	LatencyMetric                        // Figure 4
)

func (m FigureMetric) internal() figures.Metric {
	switch m {
	case ThroughputMetric:
		return figures.MetricThroughput
	case LatencyMetric:
		return figures.MetricLatency
	}
	return figures.MetricRuntime
}

// Sweep is the full grid behind the paper's Figures 2-4: every queue setup
// at every target delay, on shallow and deep buffers, plus the DropTail
// baselines. Build one with NewSweep, run it with Execute, render it with
// RenderFigure, archive it with WriteJSON.
type Sweep struct {
	inner *experiment.Sweep
}

// NewSweep prepares a sweep at the scale, fabric and seed the options
// describe — Racks/Spines/DegradeLink apply to every grid cell.
// Queue/protection/transport options are ignored — the grid enumerates every
// setup itself. Configuring tenancy — JobArrivals(n > 0) or
// RPCClients(n > 0) — switches every grid cell onto the multi-tenant
// workload engine instead of a single Terasort, and the workload knobs are
// archived with the grid.
func NewSweep(opts ...Option) (*Sweep, error) {
	c, err := NewCluster(opts...)
	if err != nil {
		return nil, err
	}
	inner := experiment.NewSweep(c.scale(), c.seed)
	inner.Degrade = c.degrade
	if c.jobArrivals > 0 || c.rpcClients > 0 {
		wc := c.workloadConfig()
		inner.Workload = &wc
	}
	return &Sweep{inner: inner}, nil
}

// SetTargetDelays overrides the default target-delay axis.
func (s *Sweep) SetTargetDelays(ds []time.Duration) {
	s.inner.TargetDelays = append([]time.Duration(nil), ds...)
}

// TargetDelays returns the sweep's target-delay axis.
func (s *Sweep) TargetDelays() []time.Duration {
	return append([]time.Duration(nil), s.inner.TargetDelays...)
}

// SetRepeats averages each grid point over n consecutive seeds.
func (s *Sweep) SetRepeats(n int) { s.inner.Repeats = n }

// SetWorkers bounds concurrent simulations (0 = GOMAXPROCS, 1 = serial).
func (s *Sweep) SetWorkers(n int) { s.inner.Workers = n }

// OnProgress installs a callback invoked before each run.
func (s *Sweep) OnProgress(fn func(done, total int, label string)) {
	if fn == nil {
		s.inner.Progress = nil
		return
	}
	s.inner.Progress = func(done, total int, cfg experiment.Config) {
		fn(done, total, cfg.String())
	}
}

// TotalRuns returns how many grid points Execute will simulate.
func (s *Sweep) TotalRuns() int { return s.inner.TotalRuns() }

// ScaleOptions reconstructs the builder options describing the sweep's
// scale, fabric shape (including link degradations) and seed, so companion
// runs (Figure1, aqmcompare) can match an archived grid exactly.
func (s *Sweep) ScaleOptions() []Option {
	sc := s.inner.Scale
	opts := []Option{
		Nodes(sc.Nodes),
		Racks(sc.Racks),
		Spines(sc.Spines),
		Oversub(sc.Oversub),
		InputSize(int64(sc.InputSize)),
		BlockSize(int64(sc.BlockSize)),
		Reducers(sc.Reducers),
		Seed(s.inner.Seed),
	}
	for _, d := range s.inner.Degrade {
		opts = append(opts, DegradeLink(d.From, d.To, d.Factor))
	}
	if w := s.inner.Workload; w != nil {
		kind := PoissonArrivals
		if w.Arrival == mapred.ArrivalFixed {
			kind = FixedArrivals
		}
		opts = append(opts,
			Arrivals(kind, time.Duration(w.MeanInterarrival)),
			FairShare(w.Policy == mapred.SchedFair),
			HeavyTailRPC(w.RPCHeavyTail),
			Warmup(time.Duration(w.Warmup)),
			Measure(time.Duration(w.Measure)),
			MeasureWindow(time.Duration(w.Window)),
		)
		// Zero-valued knobs mean "unset" at the builder (scenario defaults
		// apply) and would be rejected or dropped by the options, so only
		// the populated ones are emitted. Workloads authored through
		// ecnsim always populate sizes and interval; a hand-rolled
		// experiment-layer workload with a clientless fleet config still
		// round-trips without tripping RPCSizes' positivity check.
		if w.MaxJobs > 0 {
			opts = append(opts, JobArrivals(w.MaxJobs))
		}
		if w.RPCClients > 0 {
			opts = append(opts, RPCClients(w.RPCClients))
		}
		if w.RPCReqSize > 0 && w.RPCRespSize > 0 {
			opts = append(opts, RPCSizes(int64(w.RPCReqSize), int64(w.RPCRespSize)))
		}
		if w.RPCInterval > 0 {
			opts = append(opts, RPCInterval(time.Duration(w.RPCInterval)))
		}
	}
	return opts
}

// Execute runs the whole grid over the worker pool. Results are
// deterministic in (options, seed, repeats) and independent of the worker
// count. If ctx is cancelled mid-grid, ctx.Err() is returned.
func (s *Sweep) Execute(ctx context.Context) error {
	return s.inner.ExecuteContext(ctx)
}

// Buffers returns the buffer depths the grid covers, in render order.
func (s *Sweep) Buffers() []BufferDepth { return []BufferDepth{Shallow, Deep} }

// Labels returns the series labels present for a buffer depth, in the
// paper's render order.
func (s *Sweep) Labels(buf BufferDepth) []string {
	return figures.SortedLabels(s.inner, buf.internal())
}

// Results flattens the executed grid into uniform rows in deterministic
// order: per buffer depth, the DropTail baseline then every series in figure
// order along the target-delay axis. Labels are "<buffer>/<series>".
func (s *Sweep) Results() *ResultSet {
	out := &ResultSet{}
	add := func(buf BufferDepth, label string, r experiment.Result) {
		out.Results = append(out.Results, Result{
			Scenario: "sweep",
			Label:    buf.String() + "/" + label,
			Seed:     s.inner.Seed,
			Values:   experimentValues(r),
		})
	}
	for _, buf := range s.Buffers() {
		add(buf, "droptail", s.inner.DropTail[buf.internal()])
		for _, label := range s.Labels(buf) {
			for _, r := range s.inner.Series[buf.internal()][label] {
				add(buf, label, r)
			}
		}
	}
	return out
}

// RenderFigure renders one sub-figure (metric x buffer depth) as a plain-text
// table in the paper's normalization, e.g. RenderFigure(RuntimeMetric,
// Shallow, "2a").
func (s *Sweep) RenderFigure(m FigureMetric, buf BufferDepth, figNo string) string {
	return figures.RenderFigure(s.inner, m.internal(), buf.internal(), figNo)
}

// Headline carries the paper's Section IV/VI headline numbers.
type Headline struct {
	// ThroughputGain is SimpleMark/shallow vs DropTail/shallow (>1 = boost).
	ThroughputGain float64
	// LatencyReduction is 1 - normalized latency vs DropTail/deep (~0.85).
	LatencyReduction float64
	// ShallowReachesDeep is DropTail/deep runtime over SimpleMark/shallow
	// runtime (1.0 = the commodity switch matches the deep-buffer switch).
	ShallowReachesDeep float64
}

// Headline extracts the headline comparisons at the given target-delay index.
func (s *Sweep) Headline(delayIdx int) Headline {
	h := figures.Headline(s.inner, delayIdx)
	return Headline{
		ThroughputGain:     h.ThroughputGain,
		LatencyReduction:   h.LatencyReduction,
		ShallowReachesDeep: h.ShallowReachesDeep,
	}
}

// WriteJSON archives the executed sweep (the cmd/sweep -json format).
func (s *Sweep) WriteJSON(w io.Writer) error { return s.inner.WriteJSON(w) }

// ReadSweepJSON loads a sweep archived with WriteJSON, for re-rendering
// figures without re-simulating.
func ReadSweepJSON(r io.Reader) (*Sweep, error) {
	inner, err := experiment.ReadJSON(r)
	if err != nil {
		return nil, err
	}
	return &Sweep{inner: inner}, nil
}

// TableI renders the paper's Table I (ECN codepoints on the TCP header).
func TableI() string { return figures.TableI() }

// TableII renders the paper's Table II (ECN codepoints on the IP header).
func TableII() string { return figures.TableII() }

// QueueSnapshot is the Figure 1 reproduction: the composition of a switch
// egress queue during the shuffle under RED's default (unprotected) mode.
type QueueSnapshot struct {
	inner figures.QueueSnapshot
}

// Figure1 samples one victim egress queue (the first switch->host port)
// every interval during a Terasort over RED in default mode under classic
// ECN, run serially. Queue, protection, transport and shard options are
// ignored — the misbehaving configuration is the point of the figure. Every
// other option applies: scale, fabric shape and degradations, links, buffer
// depth, target delay, AQM and TCP ablations, the hybrid engine,
// notifications and the seed. WriteDropTrace runs the same configuration.
func Figure1(interval time.Duration, opts ...Option) (QueueSnapshot, error) {
	c, err := NewCluster(opts...)
	if err != nil {
		return QueueSnapshot{}, err
	}
	if interval <= 0 {
		return QueueSnapshot{}, fmt.Errorf("ecnsim: Figure1 interval %v must be positive", interval)
	}
	return QueueSnapshot{inner: figures.Figure1(c.experimentConfig(), interval)}, nil
}

// Render formats the snapshot like the paper's Figure 1 caption.
func (q QueueSnapshot) Render() string { return q.inner.Render() }

// Values returns the snapshot's quantities as a uniform metric map.
func (q QueueSnapshot) Values() map[string]float64 {
	return map[string]float64{
		"samples":       float64(q.inner.Samples),
		"mean_depth":    q.inner.MeanDepth,
		"max_depth":     q.inner.MaxDepth,
		"ect_share":     q.inner.MeanECTShare,
		"ack_share":     q.inner.MeanACKShare,
		"data_drops":    float64(q.inner.DataDrops),
		"ack_drops":     float64(q.inner.AckDrops),
		"syn_drops":     float64(q.inner.SynDrops),
		KeyAckDropShare: q.inner.AckDropShare,
	}
}
