// macro.go is the macro-scale open-loop harness: the 10k-node regime the
// hybrid fluid/packet engine exists for. It drives a tenantmix-style
// transfer workload — a stream of background fan-out jobs, periodic incast
// hot spots, and a latency-probing RPC fleet — directly over the fabric,
// without per-transfer MapReduce bookkeeping. Every arrival, placement and
// completion decision runs as a control-engine event, so results are
// bit-identical at any shard or worker count; only the congested minority of
// transfers ever touches the packet engine.
package experiment

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/packet"
	"repro/internal/units"
)

// MacroPort is the well-known bulk sink port of the macro harness.
const MacroPort uint16 = 9100

// MacroWorkload shapes the macro-scale transfer mix. All fields are
// fingerprinted through Config.Macro, so every knob distinguishes cached
// results.
type MacroWorkload struct {
	// Warmup, Measure and Drain split the run: arrivals start at t=1ms,
	// jobs started inside the measurement window are scored, and the run
	// stops Drain after the window closes (an open-loop cutoff — transfers
	// still in flight are abandoned, as in any steady-state measurement).
	Warmup  units.Duration `json:"warmup_ns"`
	Measure units.Duration `json:"measure_ns"`
	Drain   units.Duration `json:"drain_ns"`

	// JobMeanArrival is the mean of the exponential job inter-arrival time.
	JobMeanArrival units.Duration `json:"job_mean_arrival_ns"`
	// JobFanout is the number of transfers a background job fans out to
	// distinct random destinations; JobBytes is the size of each transfer.
	JobFanout int            `json:"job_fanout"`
	JobBytes  units.ByteSize `json:"job_bytes"`

	// HotspotEvery makes every n-th job an incast hot spot instead:
	// HotspotFanIn senders converge full-rate on one victim host, forcing
	// real packet-level congestion (and AQM activity) at its edge port.
	// 0 disables hot spots.
	HotspotEvery int `json:"hotspot_every,omitempty"`
	HotspotFanIn int `json:"hotspot_fanin,omitempty"`

	// RPCClients latency probes each send RPCBytes to a random host every
	// RPCInterval; their FCTs are the workload's tail-latency figure.
	RPCClients  int            `json:"rpc_clients,omitempty"`
	RPCInterval units.Duration `json:"rpc_interval_ns,omitempty"`
	RPCBytes    units.ByteSize `json:"rpc_bytes,omitempty"`
}

// DefaultMacroWorkload returns the macroscale scenario's mix: light fan-out
// background load with periodic incast hot spots and an RPC probe fleet.
func DefaultMacroWorkload() MacroWorkload {
	return MacroWorkload{
		Warmup:         50 * units.Millisecond,
		Measure:        300 * units.Millisecond,
		Drain:          100 * units.Millisecond,
		JobMeanArrival: 200 * units.Microsecond,
		JobFanout:      8,
		JobBytes:       4 * units.MiB,
		HotspotEvery:   40,
		HotspotFanIn:   16,
		RPCClients:     64,
		RPCInterval:    2 * units.Millisecond,
		RPCBytes:       4 * units.KiB,
	}
}

// MacroResult carries the macro harness's figures.
type MacroResult struct {
	Config Config

	// JobsStarted/JobsCompleted count jobs whose arrival fell inside the
	// measurement window; completion percentiles are over those jobs' FCTs
	// in seconds.
	JobsStarted   int
	JobsCompleted int
	JobP50        float64
	JobP99        float64

	// RPC probe FCT percentiles in seconds, over measurement-window probes.
	RPCCount int
	RPCP50   float64
	RPCP99   float64

	// Fluid is the hybrid controller's lifecycle counters (zero when the
	// run is pure packet).
	Fluid flow.FluidStats
	// PacketPayload is the payload carried by real packets (wire view).
	PacketPayload units.ByteSize

	Events  uint64
	SimTime units.Duration
}

// macroRNG is a splitmix64 stream; all randomness the macro harness consumes
// is drawn here, inside control events, so the workload trace is a pure
// function of the seed.
type macroRNG struct{ s uint64 }

func (r *macroRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *macroRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// expDur draws an exponential duration with the given mean.
func (r *macroRNG) expDur(mean units.Duration) units.Duration {
	u := (float64(r.next()>>11) + 1) / float64(1<<53) // (0, 1]
	d := units.Duration(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// macroRun is the per-run driver state, mutated only in control context.
type macroRun struct {
	c      *cluster.Cluster
	w      MacroWorkload
	rng    macroRNG
	seq    uint32 // ephemeral-port counter for fluid ECMP diversity
	jobNum int

	measureFrom units.Time
	measureTo   units.Time
	stopped     bool

	jobsStarted int
	jobFCTs     []float64
	rpcFCTs     []float64
}

// RunMacro executes the macro-scale workload under the configuration and
// returns its result. Requires a leaf-spine Scale; runs on the hybrid or the
// pure packet engine according to cfg.Hybrid (the latter only at scales the
// packet engine can hold).
func RunMacro(cfg Config, w MacroWorkload) MacroResult {
	return runMacro(cfg, w, nil)
}

// runMacro is RunMacro with a pre-run observation seam: observe (if non-nil)
// sees the built cluster before the first event, which is how the
// promotion/demotion property test installs its fluid trace.
func runMacro(cfg Config, w MacroWorkload, observe func(*cluster.Cluster)) MacroResult {
	c := Build(cfg)
	for _, st := range c.Stacks {
		flow.RegisterBulkSink(st, MacroPort, nil)
	}
	if observe != nil {
		observe(c)
	}

	start := units.Time(1 * units.Millisecond)
	m := &macroRun{
		c:           c,
		w:           w,
		rng:         macroRNG{s: cfg.Seed ^ 0xa076_1d64_78bd_642f},
		measureFrom: start.Add(w.Warmup),
		measureTo:   start.Add(w.Warmup + w.Measure),
	}
	eng := c.Engine
	eng.Schedule(start, m.nextJob)
	for i := 0; i < w.RPCClients; i++ {
		client := i
		eng.Schedule(start.Add(units.Duration(i+1)*w.RPCInterval/units.Duration(w.RPCClients+1)),
			func() { m.nextRPC(client) })
	}
	stopAt := m.measureTo.Add(w.Drain)
	eng.Schedule(stopAt, func() { m.stopped = true })

	c.Run(func() bool { return m.stopped }, 0)

	res := MacroResult{
		Config:        cfg,
		JobsStarted:   m.jobsStarted,
		JobsCompleted: len(m.jobFCTs),
		RPCCount:      len(m.rpcFCTs),
		PacketPayload: c.Metrics.TotalDeliveredPayload(),
		Events:        c.Events(),
		SimTime:       units.Duration(c.Now()),
	}
	res.JobP50, res.JobP99 = pct(m.jobFCTs)
	res.RPCP50, res.RPCP99 = pct(m.rpcFCTs)
	if c.Fluid != nil {
		res.Fluid = c.Fluid.Stats()
	}
	return res
}

// pct returns the (p50, p99) of the samples.
func pct(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return idx(0.50), idx(0.99)
}

// nextJob launches one job and schedules the next arrival (control context).
func (m *macroRun) nextJob() {
	now := m.c.Engine.Now()
	if now >= m.measureTo {
		return // arrivals stop when the measurement window closes
	}
	m.jobNum++
	scored := now >= m.measureFrom
	if scored {
		m.jobsStarted++
	}
	if m.w.HotspotEvery > 0 && m.jobNum%m.w.HotspotEvery == 0 {
		m.startHotspot(now, scored)
	} else {
		m.startFanout(now, scored)
	}
	m.c.Engine.Schedule(now.Add(m.rng.expDur(m.w.JobMeanArrival)), m.nextJob)
}

// startFanout launches one background job: JobFanout transfers from one
// source to distinct random destinations, each app-limited to a slice of the
// link rate so uncontended paths stay fluid.
func (m *macroRun) startFanout(now units.Time, scored bool) {
	n := len(m.c.Stacks)
	src := m.rng.intn(n)
	outstanding := m.w.JobFanout
	onJobDone := func(at units.Time) {
		outstanding--
		if outstanding == 0 && scored {
			m.jobFCTs = append(m.jobFCTs, at.Sub(now).Seconds())
		}
	}
	demand := m.c.Spec.LinkRate / 16
	for i := 0; i < m.w.JobFanout; i++ {
		dst := m.rng.intn(n)
		for dst == src {
			dst = m.rng.intn(n)
		}
		m.transfer(src, dst, m.w.JobBytes, demand, onJobDone)
	}
}

// startHotspot launches one incast hot spot: HotspotFanIn full-rate senders
// converge on a single victim, deliberately exceeding the fluid threshold so
// the transfers run as real TCP into the victim's edge queue.
func (m *macroRun) startHotspot(now units.Time, scored bool) {
	n := len(m.c.Stacks)
	victim := m.rng.intn(n)
	outstanding := m.w.HotspotFanIn
	onJobDone := func(at units.Time) {
		outstanding--
		if outstanding == 0 && scored {
			m.jobFCTs = append(m.jobFCTs, at.Sub(now).Seconds())
		}
	}
	for i := 0; i < m.w.HotspotFanIn; i++ {
		src := m.rng.intn(n)
		for src == victim {
			src = m.rng.intn(n)
		}
		m.transfer(src, victim, m.w.JobBytes, m.c.Spec.LinkRate, onJobDone)
	}
}

// nextRPC sends one latency probe and schedules the client's next one.
func (m *macroRun) nextRPC(client int) {
	now := m.c.Engine.Now()
	if now >= m.measureTo {
		return
	}
	n := len(m.c.Stacks)
	src := client % n
	dst := m.rng.intn(n)
	for dst == src {
		dst = m.rng.intn(n)
	}
	scored := now >= m.measureFrom
	m.transfer(src, dst, m.w.RPCBytes, m.c.Spec.LinkRate/100, func(at units.Time) {
		if scored {
			m.rpcFCTs = append(m.rpcFCTs, at.Sub(now).Seconds())
		}
	})
	m.c.Engine.Schedule(now.Add(m.w.RPCInterval), func() { m.nextRPC(client) })
}

// transfer moves size bytes from host src to host dst, fluid when the path
// is uncontended, as a packet-level TCP flow otherwise. done fires in
// control context with the completion time.
func (m *macroRun) transfer(src, dst int, size units.ByteSize, demand units.Bandwidth, done func(at units.Time)) {
	c := m.c
	srcHost := c.Stacks[src].Host()
	dstHost := c.Stacks[dst].Host()
	if c.Fluid.Active() {
		m.seq++
		from := packet.Addr{Node: srcHost.ID(), Port: uint16(0x8000 + m.seq&0x7fff)}
		to := packet.Addr{Node: dstHost.ID(), Port: MacroPort}
		ok := c.Fluid.StartFlow(from, to, size, demand,
			func() { done(c.Engine.Now()) },
			func(remaining units.ByteSize) { m.packetTransfer(src, dst, remaining, done) })
		if ok {
			return
		}
	}
	m.packetTransfer(src, dst, size, done)
}

// packetTransfer runs one transfer as a real TCP flow; the sender-side
// completion (shard context) hops back to control through the cluster's
// control plane before scoring.
func (m *macroRun) packetTransfer(src, dst int, size units.ByteSize, done func(at units.Time)) {
	c := m.c
	to := packet.Addr{Node: c.Stacks[dst].Host().ID(), Port: MacroPort}
	flow.StartBulk(c.Stacks[src], to, size, func(r *flow.BulkResult) {
		at := c.Stacks[src].Engine().Now()
		c.ScheduleControl(src, at, func() { done(at) })
	})
}
