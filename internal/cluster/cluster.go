// Package cluster assembles a complete simulated Hadoop cluster — fabric,
// transport stacks, MapReduce workers and the metrics collector — from a
// single declarative spec. It is the layer the experiments and examples
// build on.
package cluster

import (
	"fmt"
	"runtime"

	"repro/internal/flow"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// QueueKind selects the switch egress discipline.
type QueueKind uint8

// Queue kinds under study. RED, SimpleMark and DropTail carry the paper's
// evaluation; CoDel and PIE extend the protection-mode analysis to the AQMs
// the authors' earlier LCN 2016 study considered.
const (
	QueueDropTail QueueKind = iota
	QueueRED
	QueueSimpleMark
	QueueCoDel
	QueuePIE
)

// String names the kind.
func (k QueueKind) String() string {
	switch k {
	case QueueDropTail:
		return "droptail"
	case QueueRED:
		return "red"
	case QueueSimpleMark:
		return "simplemark"
	case QueueCoDel:
		return "codel"
	case QueuePIE:
		return "pie"
	}
	return fmt.Sprintf("queue(%d)", uint8(k))
}

// BufferDepth selects the per-port buffer density the paper contrasts.
type BufferDepth uint8

// Buffer depths.
const (
	// Shallow is a commodity switch: 1 MB per port.
	Shallow BufferDepth = iota
	// Deep is a big-buffer switch: 10 MB per port ("10x bigger").
	Deep
)

// String names the depth.
func (b BufferDepth) String() string {
	if b == Deep {
		return "deep"
	}
	return "shallow"
}

// Packets returns the per-port buffer capacity in full-size packets.
func (b BufferDepth) Packets() int {
	perPacket := units.ByteSize(1500)
	bytes := 1 * units.MiB
	if b == Deep {
		bytes = 10 * units.MiB
	}
	return int(bytes / perPacket)
}

// LinkDegrade declares one inter-switch link degradation applied right
// after the fabric is built: Factor == 0 fails the link outright (routes are
// rebuilt around it), 0 < Factor < 1 derates it to that fraction of its
// built rate. Switch names follow the builders: "leafR"/"spineS" on
// leaf-spine fabrics, "torR"/"agg0" on two-tier.
type LinkDegrade struct {
	From, To string
	Factor   float64
}

// Validate reports a parameter error, or nil (link existence is checked at
// build time, when the switch names exist).
func (d LinkDegrade) Validate() error {
	switch {
	case d.From == "" || d.To == "":
		return fmt.Errorf("cluster: link degradation needs both switch names, got %q<->%q", d.From, d.To)
	case d.Factor < 0 || d.Factor >= 1:
		return fmt.Errorf("cluster: degrade factor %g out of range [0, 1) (0 fails the link)", d.Factor)
	}
	return nil
}

// Spec declares a cluster and its queueing configuration.
type Spec struct {
	// Nodes and Racks shape the fabric (Racks<=1: single-switch star).
	Nodes, Racks int
	// Spines adds a spine tier above the racks: a three-tier leaf-spine
	// fabric with cross-rack traffic ECMP-hashed over the spines
	// (requires Racks >= 2).
	Spines int
	// Oversub is the rack oversubscription factor shaping the default core
	// rate on multi-rack fabrics (0 = the historical default of 2).
	Oversub float64
	// Degrade lists inter-switch link degradations applied after build.
	Degrade []LinkDegrade
	// LinkRate and LinkDelay parameterize every edge link.
	LinkRate  units.Bandwidth
	LinkDelay units.Duration

	// Queue selects the switch egress discipline; Buffer its depth.
	Queue  QueueKind
	Buffer BufferDepth
	// TargetDelay is the AQM knob the paper sweeps: RED thresholds or the
	// SimpleMark threshold derive from it. Ignored for DropTail.
	TargetDelay units.Duration
	// Protect selects RED's protection mode (QueueRED only).
	Protect qdisc.ProtectMode
	// Instantaneous switches RED to instantaneous queue measurement.
	Instantaneous bool
	// ByteMode switches RED/SimpleMark thresholds to per-byte accounting
	// (ablation; real switches are per-packet, per the paper).
	ByteMode bool

	// Transport selects the TCP variant on every node.
	Transport tcp.Variant
	// TCPOverride, if non-nil, replaces the default transport config.
	TCPOverride *tcp.Config

	// NodeSpec configures the MapReduce workers.
	NodeSpec mapred.NodeSpec

	// Seed drives every random stream in the run.
	Seed uint64
	// LatencyReservoir bounds latency sample memory (0 = keep all).
	LatencyReservoir int

	// Shards partitions the event loop by fabric slice for parallel
	// execution: 0 (the zero value) and 1 run the serial engine, ShardAuto
	// (-1) resolves automatically (GOMAXPROCS-aware on leaf-spine fabrics,
	// serial elsewhere), n > 1 requests that many shards. More than one shard
	// requires a leaf-spine fabric (Spines > 0) with at most one shard per
	// rack; Run (and RunJob over it) is the sharded drive path
	// (RunUntil/Drain/NewScheduler need a serial spec). Results are
	// bit-identical at every shard count.
	Shards int

	// Hybrid enables the fluid/packet hybrid engine: transfers whose paths
	// are uncontended run as fluid rates (one completion event instead of a
	// packet exchange), and ports that cross FluidThreshold utilization or
	// see AQM activity promote their flows to packet level. Off, the cluster
	// is literally the pure packet engine — no controller is built.
	Hybrid bool
	// FluidThreshold is the fluid utilization threshold u in [0, 1]. 0 keeps
	// the hybrid controller built but inactive (every transfer runs at packet
	// level — the exactness mode).
	FluidThreshold float64
	// PromoteHysteresis is the quiet window a promoted port must observe
	// before demoting back to fluid (0 defaults to 1ms when Hybrid is set).
	PromoteHysteresis units.Duration

	// Notify enables switch-originated congestion notifications: a switch
	// egress whose queue occupancy crosses NotifyThreshold emits an in-band
	// notification that steers ECMP reselection off the hot port
	// (NotifyReroute) and/or gates the offending sources' injection rate
	// (NotifyThrottle). Off, the fabric is literally the pure packet engine —
	// no notifier is built.
	Notify bool
	// NotifyThreshold is the emitting queue occupancy in packets (0 defaults
	// to 64 when Notify is set).
	NotifyThreshold int
	// NotifyReroute and NotifyThrottle select the reaction mechanisms. With
	// Notify set and neither selected, both engage.
	NotifyReroute, NotifyThrottle bool

	// Facade enables the drop-in net façade: a simnet.Net over the cluster's
	// stacks whose DialContext/Listen let unmodified Go network code (real
	// net/http servers and clients) run as tenants over the simulated
	// fabric. Off, no gate or façade state is built — the cluster is
	// byte-for-byte the plain engine.
	Facade bool
}

// Notification reaction constants: derived defaults, not spec knobs. The
// affinity window pins a rerouted flow to its alternate path long enough to
// outlive transient queue wiggle; the quiet period sets the throttle's decay
// clock (a gated host is back at line rate at most log2(16)+1 quiet periods
// after its last notification).
const (
	NotifyAffinity = units.Duration(1 * units.Millisecond)
	NotifyQuiet    = units.Duration(500 * units.Microsecond)
)

// ShardAuto is the Spec.Shards sentinel for automatic shard-count selection:
// min(GOMAXPROCS, Racks) on leaf-spine fabrics, serial everywhere else.
const ShardAuto = -1

// DefaultSpec returns the paper's default testbed: a 16-node Hadoop cluster
// on one switch with 10 Gbps links (the paper's context: thresholds of tens
// to hundreds of packets, DCTCP's 65-packet rule of thumb), shallow buffers,
// DropTail, plain TCP.
func DefaultSpec() Spec {
	return Spec{
		Nodes:            16,
		Racks:            1,
		LinkRate:         10 * units.Gbps,
		LinkDelay:        5 * units.Microsecond,
		Queue:            QueueDropTail,
		Buffer:           Shallow,
		TargetDelay:      500 * units.Microsecond,
		Transport:        tcp.Reno,
		NodeSpec:         mapred.DefaultNodeSpec(),
		Seed:             1,
		LatencyReservoir: 1 << 16,
	}
}

// Validate reports a spec error, or nil.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes < 2:
		return fmt.Errorf("cluster: need >=2 nodes")
	case s.LinkRate <= 0:
		return fmt.Errorf("cluster: link rate must be positive")
	case s.Queue != QueueDropTail && s.TargetDelay <= 0:
		return fmt.Errorf("cluster: AQM queues need a positive target delay")
	case s.Spines > 0 && s.Racks < 2:
		return fmt.Errorf("cluster: a spine tier needs Racks >= 2, got %d", s.Racks)
	case s.Oversub < 0:
		return fmt.Errorf("cluster: oversubscription factor must be non-negative, got %g", s.Oversub)
	case s.Racks > 1 && s.Nodes%s.Racks != 0:
		return fmt.Errorf("cluster: %d nodes not divisible into %d racks", s.Nodes, s.Racks)
	case len(s.Degrade) > 0 && s.Racks <= 1:
		return fmt.Errorf("cluster: link degradation needs inter-switch links (Racks >= 2)")
	case s.Shards < ShardAuto:
		return fmt.Errorf("cluster: shard count must be ShardAuto (-1), 0/1 (serial), or a positive count, got %d", s.Shards)
	case s.Shards > 1 && s.Spines == 0:
		return fmt.Errorf("cluster: %d shards need a leaf-spine fabric (Spines > 0); other fabrics run serially", s.Shards)
	case s.Shards > 1 && s.Shards > s.Racks:
		return fmt.Errorf("cluster: %d shards exceed %d racks (the cut is at most one shard per rack)", s.Shards, s.Racks)
	case s.FluidThreshold < 0 || s.FluidThreshold > 1:
		return fmt.Errorf("cluster: fluid threshold %g out of range [0, 1]", s.FluidThreshold)
	case !s.Hybrid && s.FluidThreshold != 0:
		return fmt.Errorf("cluster: fluid threshold needs Hybrid")
	case !s.Hybrid && s.PromoteHysteresis != 0:
		return fmt.Errorf("cluster: promote hysteresis needs Hybrid")
	case s.PromoteHysteresis < 0:
		return fmt.Errorf("cluster: promote hysteresis must be non-negative, got %v", s.PromoteHysteresis)
	case !s.Notify && s.NotifyThreshold != 0:
		return fmt.Errorf("cluster: notify threshold needs Notify")
	case !s.Notify && (s.NotifyReroute || s.NotifyThrottle):
		return fmt.Errorf("cluster: notification mechanisms need Notify")
	case s.NotifyThreshold < 0:
		return fmt.Errorf("cluster: notify threshold must be non-negative, got %d", s.NotifyThreshold)
	}
	for _, d := range s.Degrade {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return s.NodeSpec.Validate()
}

// ResolveShards returns the effective shard count for the spec: an explicit
// positive value is taken as-is, the zero value is serial, and ShardAuto
// resolves to min(GOMAXPROCS, Racks) on leaf-spine fabrics and to 1
// everywhere else.
func (s *Spec) ResolveShards() int {
	if s.Shards > 0 {
		return s.Shards
	}
	if s.Shards != ShardAuto || s.Spines == 0 || s.Racks < 2 {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > s.Racks {
		n = s.Racks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Cluster is a fully wired simulated cluster.
type Cluster struct {
	Spec Spec
	// Engine is the control engine — in serial runs (Shards resolving to 1)
	// it is the one engine everything runs on, exactly as before sharding
	// existed. Sharded hosts run on their shard's engine instead; reach it
	// via Workers[i].Stack.Engine().
	Engine *sim.Engine
	// Group coordinates the shard engines under conservative lookahead.
	// Serial runs hold the degenerate one-shard group.
	Group   *sim.Group
	Topo    *topo.Cluster
	Stacks  []*tcp.Stack
	Workers []*mapred.Worker
	Metrics *metrics.Collector
	// TCP aggregates transport counters. In sharded runs each shard writes
	// its own block and Run folds them in here after the run.
	TCP *tcp.Stats
	// Fluid is the hybrid engine's fluid controller, nil unless Spec.Hybrid.
	// With FluidThreshold 0 it exists but never admits a transfer.
	Fluid *flow.Fluid
	// Notify is the congestion notifier, nil unless Spec.Notify.
	Notify *netsim.Notifier
	// Net is the drop-in net façade over the cluster's stacks, nil unless
	// Spec.Facade.
	Net *simnet.Net

	shardViews []*metrics.ShardView
	shardStats []*tcp.Stats
	shardOf    []int // worker index -> shard id
}

// onBarrier is a sharded group's barrier hook: drain the cross-shard packet
// lanes, then replay the shards' buffered deliveries in serial order.
func (c *Cluster) onBarrier() {
	c.Topo.Net.DrainCrossShard()
	c.Metrics.ReplayDeliveries(c.shardViews)
}

// queueFactory builds the spec's switch qdisc for one port.
func (s *Spec) queueFactory() topo.QdiscFactory {
	capacity := s.Buffer.Packets()
	portSeq := uint64(0)
	return func(label string, rate units.Bandwidth) qdisc.Qdisc {
		portSeq++
		switch s.Queue {
		case QueueDropTail:
			return qdisc.NewDropTail(capacity)
		case QueueRED:
			cfg := qdisc.REDForTargetDelay(capacity, rate, s.TargetDelay)
			cfg.ECN = s.Transport.ECNEnabled()
			cfg.Protect = s.Protect
			cfg.Instantaneous = s.Instantaneous
			cfg.Seed = s.Seed ^ portSeq*0x9e3779b97f4a7c15
			if s.ByteMode {
				// Convert packet thresholds to bytes at full segment size.
				mean := float64(packet.HeaderSize + packet.DefaultMSS)
				cfg.ByteMode = true
				cfg.MinTh *= mean
				cfg.MaxTh *= mean
			}
			return qdisc.NewRED(cfg)
		case QueueSimpleMark:
			if s.ByteMode {
				k := s.LinkRateBytesIn(s.TargetDelay)
				return qdisc.NewSimpleMarkBytes(capacity, k)
			}
			return qdisc.SimpleMarkForTargetDelay(capacity, rate, s.TargetDelay)
		case QueueCoDel:
			cfg := qdisc.DefaultCoDelConfig(capacity, s.TargetDelay)
			cfg.ECN = s.Transport.ECNEnabled()
			cfg.Protect = s.Protect
			return qdisc.NewCoDel(cfg)
		case QueuePIE:
			cfg := qdisc.DefaultPIEConfig(capacity, rate, s.TargetDelay)
			cfg.ECN = s.Transport.ECNEnabled()
			cfg.Protect = s.Protect
			cfg.Seed = s.Seed ^ portSeq*0x7f4a_7c15
			return qdisc.NewPIE(cfg)
		}
		panic("cluster: unknown queue kind")
	}
}

// LinkRateBytesIn returns bytes the edge link drains in d (helper).
func (s *Spec) LinkRateBytesIn(d units.Duration) units.ByteSize {
	return s.LinkRate.BytesIn(d)
}

// New builds the cluster.
func New(spec Spec) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	shards := spec.ResolveShards()
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.New()
	}
	// As in NS-2 (the paper's simulator), the configured queue discipline
	// applies uniformly to every link queue — host uplinks included.
	qf := spec.queueFactory()
	tc := topo.BuildSharded(engines, topo.Config{
		Nodes:     spec.Nodes,
		Racks:     spec.Racks,
		Spines:    spec.Spines,
		Oversub:   spec.Oversub,
		LinkRate:  spec.LinkRate,
		LinkDelay: spec.LinkDelay,
		// The ECMP flow hash is salted from the run seed, so multipath path
		// assignment replays bit-identically for a given (spec, seed).
		HashSeed:    spec.Seed ^ 0xec3c_9a1f_5bd1_e995,
		HostQueue:   qf,
		SwitchQueue: qf,
	})
	for _, d := range spec.Degrade {
		var err error
		if d.Factor == 0 {
			err = tc.FailLink(d.From, d.To)
		} else {
			err = tc.DerateLink(d.From, d.To, d.Factor)
		}
		if err != nil {
			panic(err)
		}
	}
	group := sim.NewGroup(engines, tc.Lookahead)
	col := metrics.New(spec.LatencyReservoir, spec.Seed)

	c := &Cluster{
		Spec:    spec,
		Engine:  group.Ctrl(),
		Group:   group,
		Topo:    tc,
		Metrics: col,
		TCP:     &tcp.Stats{},
	}

	if spec.Hybrid {
		hyst := spec.PromoteHysteresis
		if hyst <= 0 {
			hyst = units.Duration(1 * units.Millisecond)
		}
		c.Fluid = flow.NewFluid(group, tc.Net, flow.FluidConfig{
			Threshold:  spec.FluidThreshold,
			Hysteresis: hyst,
			Lag:        c.ControlLag(),
		})
		c.Fluid.OnDelivered = col.AddFluidPayload
		// Track every port a flow can traverse; a fluid transfer crossing an
		// untracked port would be invisible to the congestion accounting.
		for _, h := range tc.Hosts {
			c.Fluid.Track(h.Uplink())
		}
		for _, p := range tc.EdgePorts {
			c.Fluid.Track(p)
		}
		for _, p := range tc.UpPorts {
			c.Fluid.Track(p)
		}
		for _, p := range tc.DownPorts {
			c.Fluid.Track(p)
		}
	}
	if spec.Notify {
		thr := spec.NotifyThreshold
		if thr == 0 {
			thr = 64
		}
		reroute, throttle := spec.NotifyReroute, spec.NotifyThrottle
		if !reroute && !throttle {
			reroute, throttle = true, true
		}
		c.Notify = netsim.NewNotifier(group, tc.Net, netsim.NotifyConfig{
			Threshold: thr,
			Reroute:   reroute,
			Throttle:  throttle,
			Affinity:  NotifyAffinity,
			Quiet:     NotifyQuiet,
			Lag:       c.ControlLag(),
		})
		// Track every switch egress that can congest: edge (switch->host),
		// core up and core down. Host uplinks are not tracked — a host
		// noticing its own queue gains nothing from notifying itself.
		for _, p := range tc.EdgePorts {
			c.Notify.Track(p)
		}
		for _, p := range tc.UpPorts {
			c.Notify.Track(p)
		}
		for _, p := range tc.DownPorts {
			c.Notify.Track(p)
		}
		for _, h := range tc.Hosts {
			c.Notify.RegisterHost(h)
		}
	}
	// Each shard observes through its own metrics view. A serial run's view
	// writes the collector directly; a sharded run's keep order-free
	// counters shard-local and buffer deliveries, which are replayed into
	// the collector in serial order at every barrier, right after the
	// cross-shard packet lanes drain.
	c.shardViews = make([]*metrics.ShardView, shards)
	for i, e := range engines {
		if group.Serial() {
			c.shardViews[i] = col.View()
		} else {
			c.shardViews[i] = col.ShardView(e)
		}
		tc.Net.Shard(i).Subscribe(c.shardViews[i])
	}
	if !group.Serial() {
		group.OnBarrier = c.onBarrier
	}
	// The fluid controller sees AQM verdicts and the notifier every enqueue
	// verdict, after the metrics view and in that order, so the control
	// events they route keep their order. Off, neither subscribes.
	if c.Fluid.Active() {
		tc.Net.Subscribe(c.Fluid)
	}
	if c.Notify != nil {
		tc.Net.Subscribe(c.Notify)
	}

	tcpCfg := tcp.DefaultConfig(spec.Transport)
	if spec.TCPOverride != nil {
		tcpCfg = *spec.TCPOverride
	}
	c.shardStats = make([]*tcp.Stats, shards)
	if group.Serial() {
		// One shared block, written in place — the historical layout.
		c.shardStats[0] = c.TCP
	} else {
		for i := range c.shardStats {
			c.shardStats[i] = &tcp.Stats{}
		}
	}
	for i, h := range tc.Hosts {
		sid := h.Shard().ID()
		c.shardOf = append(c.shardOf, sid)
		st := tcp.NewStack(h, tcpCfg, c.shardStats[sid])
		c.Stacks = append(c.Stacks, st)
		c.Workers = append(c.Workers, &mapred.Worker{
			Index: i,
			Spec:  spec.NodeSpec,
			Stack: st,
		})
	}
	if spec.Facade {
		// The façade's shard-context observations (TCP delivery callbacks)
		// re-enter control at observation time plus ControlLag, through the
		// same ScheduleControl seam as hybrid promotion — one hop discipline,
		// identical at every shard count.
		c.Net = simnet.New(simnet.Config{
			Stacks:   c.Stacks,
			Group:    group,
			Schedule: c.ScheduleControl,
			Lag:      c.ControlLag(),
		})
	}
	return c
}

// mergeShardState folds per-shard aggregates (metrics counters, transport
// stats) into the run-wide views; until it runs, every counter the shards
// accumulated reads as zero. Run calls it on return, so no drive path can
// skip it. Idempotent; a no-op in serial runs.
func (c *Cluster) mergeShardState() {
	if c.Group.Serial() {
		return
	}
	for _, v := range c.shardViews {
		c.Metrics.MergeShard(v)
	}
	*c.TCP = tcp.Stats{}
	for _, s := range c.shardStats {
		s.AddInto(c.TCP)
	}
}

// ScheduleControl registers fn as a globally-serialized control event at
// time at from the context of the given worker's shard, ordered exactly
// where a serial engine would have placed it. It implements
// mapred.ControlPlane and is the hybrid harnesses' bridge from shard-context
// completions back into control context.
func (c *Cluster) ScheduleControl(worker int, at units.Time, fn func()) {
	sid := c.shardOf[worker]
	var lin sim.Lineage
	c.Group.Shards()[sid].ChildLineage(&lin)
	c.Group.ScheduleControl(sid, at, lin, fn)
}

// ControlLag is the fixed delay hybrid feedback events (shard-context
// observations re-entering control context) must carry: the minimum
// core-link propagation delay of the fabric. It is a property of the
// topology, not the partitioning — equal at every shard count, and at least
// the shard group's lookahead — so a control event at observation+lag fires
// after every shard event any window could have raced past, in serial and
// sharded runs alike. Zero on single-switch fabrics (nothing to race).
func (c *Cluster) ControlLag() units.Duration {
	lag := units.Duration(0)
	for _, p := range c.Topo.CorePorts {
		if d := p.Link().Delay; lag == 0 || d < lag {
			lag = d
		}
	}
	return lag
}

// RunJob creates, starts and drives a MapReduce job to completion (with a
// generous simulated-time safety deadline) through Run, returning the
// finished job: with Shards > 1 the group runs every fabric partition in
// parallel under conservative lookahead, producing bit-identical results to
// the serial engine.
func (c *Cluster) RunJob(cfg mapred.JobConfig) *mapred.Job {
	if cfg.ReplicationFactor > 1 && !c.Group.Serial() {
		panic("cluster: HDFS replication > 1 requires Shards(1) — the write pipeline fans one commit across arbitrary workers")
	}
	job := mapred.NewJob(c.Engine, cfg, c.Workers)
	if !c.Group.Serial() {
		job.SetControlPlane(c)
	}
	if c.Fluid.Active() {
		// Serial hybrid runs need the control plane too: the fluid feedback
		// hops must incur the same ControlLag at every shard count.
		job.SetControlPlane(c)
		job.SetFluid(c.Fluid, c.ControlLag())
	}
	// Start slightly after t=0 so TSVal==0 never collides with the "no
	// timestamp" sentinel.
	c.Engine.Schedule(units.Time(1*units.Millisecond), job.Start)
	deadline := units.Time(6 * units.Second * units.Duration(1+c.Spec.Nodes))
	switch c.Run(job.Done, deadline) {
	case sim.RunDeadlock:
		panic("cluster: job deadlocked — no pending events")
	case sim.RunTimeout:
		panic(fmt.Sprintf("cluster: job exceeded deadline %v (done=%v)", deadline, job.Done()))
	}
	return job
}

// Run drives the cluster until done reports true, no events remain
// (sim.RunDeadlock), or the next event lies past deadline (sim.RunTimeout;
// 0 means unbounded), then folds the shards' counters into Metrics and TCP.
// It is the one loop for serial and sharded runs alike; with the façade
// wired in it runs the façade's loop, which also rescues tenants that
// published an operation after the last control event settled.
func (c *Cluster) Run(done func() bool, deadline units.Time) sim.RunOutcome {
	var out sim.RunOutcome
	if c.Net != nil {
		out = c.Net.Run(done, deadline)
	} else {
		out = c.Group.RunLoop(done, deadline)
	}
	c.mergeShardState()
	return out
}

// Events returns the executed-event count across the whole group — the
// figure every benchmark normalizes by.
func (c *Cluster) Events() uint64 { return c.Group.Executed() }

// Now returns the control clock — what a serial run's Engine.Now() reports.
func (c *Cluster) Now() units.Time { return c.Group.Now() }

// requireSerial guards drive paths that step the control engine directly.
func (c *Cluster) requireSerial(op string) {
	if !c.Group.Serial() {
		panic(fmt.Sprintf("cluster: %s requires Shards(1); only Run drives a sharded group", op))
	}
}

// NewScheduler hands the cluster's workers to a shared-slot multi-job
// scheduler — the multi-tenant entry point, where several jobs overlap on
// the same map/reduce slots instead of running one RunJob to completion.
// The scheduler takes ownership of the workers' slot counters; do not mix
// it with RunJob on the same cluster.
func (c *Cluster) NewScheduler(policy mapred.SchedPolicy) *mapred.Scheduler {
	c.requireSerial("NewScheduler")
	return mapred.NewScheduler(c.Engine, c.Workers, policy)
}

// RunUntil drives the engine to the absolute simulated time t, executing
// every event scheduled before it.
func (c *Cluster) RunUntil(t units.Time) {
	c.requireSerial("RunUntil")
	c.Engine.RunUntil(t)
}

// Drain steps the engine until quiet() reports true, no events remain, or
// the simulated clock passes deadline. It reports whether the quiet
// condition was reached — callers decide whether an unfinished drain is an
// error (a deliberately overloaded open-loop run may legitimately still
// hold a backlog at the cutoff).
func (c *Cluster) Drain(deadline units.Time, quiet func() bool) bool {
	c.requireSerial("Drain")
	for !quiet() {
		if !c.Engine.Step() {
			return quiet()
		}
		if c.Engine.Now() > deadline {
			return quiet()
		}
	}
	return true
}

// Ports returns the switch->host edge ports (the studied bottlenecks).
func (c *Cluster) Ports() []*netsim.Port { return c.Topo.EdgePorts }

// WatchTierOccupancy enables per-tier queue-occupancy aggregation on the
// metrics collector, registering every built port under its fabric tier
// (host uplinks, switch->host edge, core up, core down). Call before the
// run; read back via Metrics.TierOccupancyAt.
func (c *Cluster) WatchTierOccupancy() {
	col := c.Metrics
	for _, h := range c.Topo.Hosts {
		if up := h.Uplink(); up != nil {
			col.SetPortTier(up, metrics.TierHostUp)
		}
	}
	for _, p := range c.Topo.EdgePorts {
		col.SetPortTier(p, metrics.TierEdge)
	}
	for _, p := range c.Topo.UpPorts {
		col.SetPortTier(p, metrics.TierCoreUp)
	}
	for _, p := range c.Topo.DownPorts {
		col.SetPortTier(p, metrics.TierCoreDown)
	}
	col.WatchTiers()
}
