package experiment

// The multi-tenant steady-state harness. The paper's motivating scenario is
// a *shared* Hadoop cluster — latency-sensitive services colocated with a
// continuous stream of batch jobs — and single-job lifetime statistics
// cannot express what such a service observes. RunTenants drives an
// open-loop job-arrival process through a shared-slot scheduler alongside
// an RPC client fleet, and measures in phases:
//
//   - warmup:  arrivals and clients run, nothing is recorded — the cluster
//     reaches its congested steady state first;
//   - measure: RPC latencies and per-packet latencies are windowed
//     (P50/P99 per window) and throughput is taken over the window's
//     delivered-byte delta;
//   - drain:   arrivals and clients stop, submitted jobs run out (bounded
//     by a generous deadline; an overloaded open-loop run may legitimately
//     keep a backlog, which is reported, not panicked over).
//
// Everything is deterministic in (Config, WorkloadConfig): arrivals, the
// job mix and the fleet all derive their streams from the run seed.

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/mapred"
	"repro/internal/stats"
	"repro/internal/units"
)

// FleetBasePort is the first port the tenant RPC fleet's servers listen on.
const FleetBasePort uint16 = 7000

// WorkloadConfig describes the sustained multi-tenant load: the batch-job
// arrival stream, the slot-scheduling policy, the RPC client fleet, and the
// warmup/measure phase layout.
type WorkloadConfig struct {
	// Arrival selects the inter-arrival distribution; MeanInterarrival its
	// mean. MaxJobs caps total submissions (0 = unlimited while the
	// submission phase is open, i.e. until the measurement phase ends).
	Arrival          mapred.ArrivalKind `json:"arrival"`
	MeanInterarrival units.Duration     `json:"mean_interarrival_ns"`
	MaxJobs          int                `json:"max_jobs"`
	// Policy selects how jobs share the workers' map/reduce slots.
	Policy mapred.SchedPolicy `json:"policy"`
	// Mix is the weighted job-shape table arrivals draw from (empty = the
	// default mix derived from the configured scale).
	Mix []mapred.MixEntry `json:"mix,omitempty"`

	// RPCClients sizes the open-loop service fleet (0 = batch only).
	RPCClients int `json:"rpc_clients"`
	// RPCReqSize / RPCRespSize are the exchange payloads in bytes;
	// RPCHeavyTail switches responses to a bounded Pareto with that mean.
	RPCReqSize   int  `json:"rpc_req_size"`
	RPCRespSize  int  `json:"rpc_resp_size"`
	RPCHeavyTail bool `json:"rpc_heavy_tail,omitempty"`
	// RPCInterval is each client's open-loop issue period.
	RPCInterval units.Duration `json:"rpc_interval_ns"`

	// Warmup precedes measurement; Measure is the measurement phase length,
	// split into Window-wide percentile windows.
	Warmup  units.Duration `json:"warmup_ns"`
	Measure units.Duration `json:"measure_ns"`
	Window  units.Duration `json:"window_ns"`
}

// DefaultWorkload returns a small sustained-load shape: open Poisson
// arrivals every 150 ms (no job cap — the stream runs until the
// measurement phase closes), FIFO slots, a 4-client fleet of 128 B / 4 KiB
// exchanges every 2 ms, 250 ms of warmup and a 2 s measurement phase in
// 500 ms windows.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Arrival:          mapred.ArrivalPoisson,
		MeanInterarrival: 150 * units.Millisecond,
		Policy:           mapred.SchedFIFO,
		RPCClients:       4,
		RPCReqSize:       128,
		RPCRespSize:      4096,
		RPCInterval:      2 * units.Millisecond,
		Warmup:           250 * units.Millisecond,
		Measure:          2 * units.Second,
		Window:           500 * units.Millisecond,
	}
}

// Validate reports a workload error, or nil.
func (w *WorkloadConfig) Validate() error {
	switch {
	case w.MeanInterarrival <= 0:
		return fmt.Errorf("experiment: workload mean inter-arrival must be positive")
	case w.Arrival > mapred.ArrivalPoisson:
		return fmt.Errorf("experiment: unknown arrival kind %d", w.Arrival)
	case w.Policy > mapred.SchedFair:
		return fmt.Errorf("experiment: unknown scheduling policy %d", w.Policy)
	case w.MaxJobs < 0:
		return fmt.Errorf("experiment: workload max jobs must be non-negative")
	case w.RPCClients < 0:
		return fmt.Errorf("experiment: workload RPC clients must be non-negative")
	case w.Measure <= 0:
		return fmt.Errorf("experiment: workload measure phase must be positive")
	case w.Warmup < 0:
		return fmt.Errorf("experiment: workload warmup must be non-negative")
	case w.Window <= 0 || w.Window > w.Measure:
		return fmt.Errorf("experiment: workload window must be in (0, measure]")
	}
	if w.RPCClients > 0 {
		fc := w.fleetConfig(0)
		if err := fc.Validate(); err != nil {
			return err
		}
	}
	if len(w.Mix) > 0 {
		// NewJobMix is the authority on mix validity (weights, job configs,
		// the replicated-output ban); run it here so a bad mix surfaces at
		// validation time instead of panicking mid-run.
		if _, err := mapred.NewJobMix(w.Mix, 0); err != nil {
			return err
		}
	}
	return nil
}

// Windows returns the number of measurement windows the phase layout
// induces.
func (w *WorkloadConfig) Windows() int {
	return int(math.Ceil(float64(w.Measure) / float64(w.Window)))
}

func (w *WorkloadConfig) fleetConfig(seed uint64) flow.FleetConfig {
	return flow.FleetConfig{
		Clients:   w.RPCClients,
		ReqSize:   w.RPCReqSize,
		RespSize:  w.RPCRespSize,
		HeavyTail: w.RPCHeavyTail,
		Interval:  w.RPCInterval,
		BasePort:  FleetBasePort,
		Seed:      seed,
	}
}

// ServiceFleet is the service-tier seam: the RPC fleet a harness drives can
// be the packet-modeled flow fleet (RunTenants) or the façade's pool of real
// http.Clients (RunHTTPLoad). Stop and Outstanding feed the phase machinery;
// Exchanges feeds the shared SLO aggregation.
type ServiceFleet interface {
	// Stop closes the issue loop; exchanges already in flight still finish.
	Stop()
	// Outstanding returns the number of issued-but-unanswered exchanges —
	// the drain predicate polls it between engine steps.
	Outstanding() int
	// Exchanges returns every completed exchange plus the issue times of
	// exchanges still unanswered at drain cutoff, both in deterministic
	// (client, issue) order.
	Exchanges() ([]flow.RPCResult, []units.Time)
}

// modeledFleet adapts the packet-modeled open-loop fleet to the seam.
type modeledFleet struct{ f *flow.Fleet }

func (m modeledFleet) Stop()            { m.f.Stop() }
func (m modeledFleet) Outstanding() int { return m.f.Outstanding() }

func (m modeledFleet) Exchanges() ([]flow.RPCResult, []units.Time) {
	var results []flow.RPCResult
	var cut []units.Time
	for _, cl := range m.f.Clients {
		results = append(results, cl.Results...)
		cut = append(cut, cl.OutstandingIssued()...)
	}
	return results, cut
}

// aggregateRPC windows every exchange issued inside the measurement phase
// into the whole-run sample and the windowed series, and returns the failure
// count: exchanges that failed outright plus exchanges the drain deadline
// cut off — the slowest tail must not vanish from the SLO accounting.
func aggregateRPC(results []flow.RPCResult, cutOff []units.Time,
	measureStart, measureEnd units.Time, all *stats.Sample, win *stats.Windowed) int {
	failed := 0
	for i := range results {
		r := &results[i]
		if r.Issued < measureStart || r.Issued >= measureEnd {
			continue
		}
		if r.Failed {
			failed++
			continue
		}
		lat := r.Latency().Seconds()
		all.Add(lat)
		win.Add(r.Issued.Seconds(), lat)
	}
	for _, issued := range cutOff {
		if issued >= measureStart && issued < measureEnd {
			failed++
		}
	}
	return failed
}

// WindowStat is one measurement window's latency summary.
type WindowStat struct {
	// Start is the window's offset from the start of the measurement phase.
	Start units.Duration
	// Count is the number of samples the window holds.
	Count uint64
	// P50/P99 are the window's latency percentiles.
	P50, P99 units.Duration
}

// TenantResult reports one multi-tenant run: the standard figure metrics
// (throughput over the measurement window, whole-run latency/drop
// accounting) plus the tenant views — job completion statistics and the
// windowed RPC/network latency series.
type TenantResult struct {
	Result
	Workload WorkloadConfig

	// Batch tier.
	JobsSubmitted int
	JobsCompleted int
	// JobMean/P50/P99 summarize completed-job runtimes (submission to
	// completion, queueing included).
	JobMean, JobP50, JobP99 units.Duration
	// Makespan is first submission to last completion (or the drain cutoff
	// when the backlog outlived it).
	Makespan units.Duration
	// Drained reports whether every submitted job completed before the
	// drain deadline.
	Drained bool

	// Service tier (measurement phase only).
	RPCCount uint64
	// RPCFailed counts exchanges that failed outright plus exchanges still
	// unanswered when the drain deadline cut the run off — an SLO view
	// must not let the slowest tail vanish from the books.
	RPCFailed int
	RPCMean   units.Duration
	RPCP50    units.Duration
	RPCP99    units.Duration
	// RPCWindows is the per-window RPC latency series — the SLO view.
	RPCWindows []WindowStat
	// NetWindows is the per-window per-packet network latency series.
	NetWindows []WindowStat
}

// phases is the steady-state layout RunTenants and RunHTTPLoad share:
// workload start at 1 ms, warmup, a measurement phase split into windows,
// then a drain. It owns the per-packet latency windows, the delivered-payload
// snapshots at the measurement boundaries, the service fleet's stop, and the
// SLO aggregation.
type phases struct {
	w                               WorkloadConfig
	start, measureStart, measureEnd units.Time
	windows                         int
	// fleet is the service tier (nil = batch only). A harness may install
	// it inside an event before measureEnd.
	fleet                        ServiceFleet
	payloadAtStart, payloadAtEnd units.ByteSize
}

// newPhases lays w out on c and arms the windowed per-packet latency series.
// Like RunJob, everything starts slightly after t=0 so TSVal==0 never
// collides with the "no timestamp" sentinel.
func newPhases(c *cluster.Cluster, w WorkloadConfig) *phases {
	p := &phases{w: w, start: units.Time(1 * units.Millisecond), windows: w.Windows()}
	p.measureStart = p.start.Add(w.Warmup)
	p.measureEnd = p.measureStart.Add(w.Measure)
	c.Metrics.WatchLatencyWindows(p.measureStart.Seconds(), w.Window.Seconds(), p.windows,
		c.Spec.LatencyReservoir, c.Spec.Seed)
	// When Measure is not an exact multiple of Window the last window would
	// extend past the measurement phase and absorb drain-phase latencies;
	// cut it off at measureEnd so the steady-state series stays honest.
	c.Metrics.LatencyWindows().SetCutoff(p.measureEnd.Seconds())
	return p
}

// scheduleBoundaries snapshots the delivered payload at both ends of the
// measurement phase (steady-state throughput is their delta, not whole-run
// totals) and stops the fleet at its end. Call it after the workload is
// installed: events at one instant run in schedule order, so the boundaries
// must follow the workload's own start events.
func (p *phases) scheduleBoundaries(c *cluster.Cluster) {
	c.Engine.Schedule(p.measureStart, func() { p.payloadAtStart = c.Metrics.TotalDeliveredPayload() })
	c.Engine.Schedule(p.measureEnd, func() {
		p.payloadAtEnd = c.Metrics.TotalDeliveredPayload()
		if p.fleet != nil {
			p.fleet.Stop()
		}
	})
}

// drainDeadline bounds the drain phase generously for the cluster's size.
func (p *phases) drainDeadline(c *cluster.Cluster) units.Time {
	return p.measureEnd.Add(6 * units.Second * units.Duration(1+c.Spec.Nodes))
}

// report fills res from the finished run: the service tier windowed over
// the measurement phase, the per-packet latency windows, the figure metrics
// (throughput over the measurement window, runtime from the workload start)
// and the fields every result carries.
func (p *phases) report(c *cluster.Cluster, res *TenantResult) {
	w := p.w
	rpcAll := stats.NewSample()
	rpcWin := stats.NewWindowed(p.measureStart.Seconds(), w.Window.Seconds(), p.windows)
	if p.fleet != nil {
		results, cut := p.fleet.Exchanges()
		res.RPCFailed = aggregateRPC(results, cut, p.measureStart, p.measureEnd, rpcAll, rpcWin)
	}
	res.RPCCount = rpcAll.N()
	res.RPCMean = seconds(rpcAll.Mean())
	res.RPCP50 = seconds(rpcAll.Quantile(0.5))
	res.RPCP99 = seconds(rpcAll.Quantile(0.99))
	res.RPCWindows = windowStats(rpcWin, p.windows, w.Window)
	res.NetWindows = windowStats(c.Metrics.LatencyWindows(), p.windows, w.Window)

	res.Runtime = c.Now().Sub(p.start)
	res.ShuffledBytes = p.payloadAtEnd - p.payloadAtStart
	if sec := w.Measure.Seconds(); sec > 0 && c.Spec.Nodes > 0 {
		res.ThroughputPerNode = units.Bandwidth(float64(res.ShuffledBytes*8) / sec / float64(c.Spec.Nodes))
	}
	res.measure(c)
}

// RunTenants executes the multi-tenant workload under the configuration.
// It panics on an invalid workload (the ecnsim layer validates at
// NewCluster time, like every other config error).
func RunTenants(cfg Config, w WorkloadConfig) TenantResult {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	// The tenant harness drives the cluster through RunUntil/Drain and the
	// shared slot scheduler — the serial drive path — so the shard request is
	// overridden rather than panicking deep inside the run. The result still
	// reports the caller's configuration.
	run := cfg
	run.Scale.Shards = 1
	c := Build(run)
	p := newPhases(c, w)

	// Batch tier: seeded arrivals drawing from the job mix into the
	// shared-slot scheduler.
	sched := c.NewScheduler(w.Policy)
	entries := w.Mix
	if len(entries) == 0 {
		entries = mapred.DefaultMix(cfg.Scale.InputSize, cfg.Scale.Reducers)
	}
	mix, err := mapred.NewJobMix(entries, cfg.Seed^0x6a09e667f3bcc908)
	if err != nil {
		panic(err)
	}
	arrivals := mapred.NewArrivalProcess(w.Arrival, w.MeanInterarrival, cfg.Seed^0xbb67ae8584caa73b)
	submitted := 0
	var firstSubmit units.Time
	var submitNext func()
	submitNext = func() {
		if c.Engine.Now() >= p.measureEnd {
			return // the submission phase closes with the measurement phase
		}
		if w.MaxJobs > 0 && submitted >= w.MaxJobs {
			return
		}
		if submitted == 0 {
			firstSubmit = c.Engine.Now()
		}
		sched.Submit(mix.Pick())
		submitted++
		c.Engine.After(arrivals.Next(), submitNext)
	}
	c.Engine.Schedule(p.start, submitNext)

	// Service tier: the open-loop RPC fleet (the modeled side of the seam).
	if w.RPCClients > 0 {
		p.fleet = modeledFleet{flow.StartFleet(c.Stacks, w.fleetConfig(cfg.Seed^0x3c6ef372fe94f82b), p.start)}
	}
	p.scheduleBoundaries(c)

	// RunUntil, not a loop predicate: the clock lands exactly on measureEnd.
	c.RunUntil(p.measureEnd)
	// Quiet means both tiers are done: the batch backlog has run out AND no
	// RPC exchange is still in flight — otherwise exactly the slowest tail
	// exchanges would be dropped from the windows they exist to expose.
	drained := c.Drain(p.drainDeadline(c), func() bool {
		if sched.Active() > 0 {
			return false
		}
		return p.fleet == nil || p.fleet.Outstanding() == 0
	})

	res := TenantResult{Workload: w, Drained: drained, JobsSubmitted: submitted}
	res.Config = cfg

	// Batch tier.
	jobSample := stats.NewSample()
	var lastDone units.Time
	for _, j := range sched.Jobs() {
		if !j.Done() {
			continue
		}
		res.JobsCompleted++
		jobSample.Add(j.Runtime().Seconds())
		if j.Finished > lastDone {
			lastDone = j.Finished
		}
		res.FetchRetries += j.FetchRetries
	}
	res.JobMean = seconds(jobSample.Mean())
	res.JobP50 = seconds(jobSample.Quantile(0.5))
	res.JobP99 = seconds(jobSample.Quantile(0.99))
	if submitted > 0 {
		end := lastDone
		if !drained || end == 0 {
			end = c.Engine.Now()
		}
		res.Makespan = end.Sub(firstSubmit)
	}

	p.report(c, &res)
	return res
}

// windowStats flattens a windowed accumulator into exactly n WindowStats
// (quiet windows report zero counts). Offsets are exact multiples of the
// window width, not float reconstructions.
func windowStats(win *stats.Windowed, n int, width units.Duration) []WindowStat {
	out := make([]WindowStat, n)
	for i := 0; i < n; i++ {
		out[i] = WindowStat{
			Start: units.Duration(i) * width,
			Count: win.Count(i),
			P50:   units.Duration(win.Quantile(i, 0.5) * float64(units.Second)),
			P99:   units.Duration(win.Quantile(i, 0.99) * float64(units.Second)),
		}
	}
	return out
}
