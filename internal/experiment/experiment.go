// Package experiment defines and executes the paper's experiments: a single
// Terasort run over a configured fabric/queue/transport combination,
// returning the three metrics every figure reports (runtime, mean throughput
// per node, mean per-packet latency), plus the sweep grids behind Figures
// 2-4 and the headline comparisons.
package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/qdisc"
	"repro/internal/tcp"
	"repro/internal/units"
)

// QueueSetup names one of the queue configurations under study.
type QueueSetup struct {
	// Label is the series name used in figures ("droptail", "ecn-default",
	// "dctcp-ack+syn", "ecn-simplemark", ...).
	Label string
	// Queue is the discipline kind.
	Queue cluster.QueueKind
	// Protect applies to RED.
	Protect qdisc.ProtectMode
	// Transport is the TCP variant all nodes run.
	Transport tcp.Variant
}

// Canonical queue setups.
var (
	SetupDropTail = QueueSetup{Label: "droptail", Queue: cluster.QueueDropTail, Transport: tcp.Reno}

	SetupECNDefault = QueueSetup{Label: "ecn-default", Queue: cluster.QueueRED, Protect: qdisc.ProtectNone, Transport: tcp.RenoECN}
	SetupECNECE     = QueueSetup{Label: "ecn-ece-bit", Queue: cluster.QueueRED, Protect: qdisc.ProtectECE, Transport: tcp.RenoECN}
	SetupECNAckSyn  = QueueSetup{Label: "ecn-ack+syn", Queue: cluster.QueueRED, Protect: qdisc.ProtectACKSYN, Transport: tcp.RenoECN}

	SetupDCTCPDefault = QueueSetup{Label: "dctcp-default", Queue: cluster.QueueRED, Protect: qdisc.ProtectNone, Transport: tcp.DCTCP}
	SetupDCTCPECE     = QueueSetup{Label: "dctcp-ece-bit", Queue: cluster.QueueRED, Protect: qdisc.ProtectECE, Transport: tcp.DCTCP}
	SetupDCTCPAckSyn  = QueueSetup{Label: "dctcp-ack+syn", Queue: cluster.QueueRED, Protect: qdisc.ProtectACKSYN, Transport: tcp.DCTCP}

	SetupECNSimpleMark   = QueueSetup{Label: "ecn-simplemark", Queue: cluster.QueueSimpleMark, Transport: tcp.RenoECN}
	SetupDCTCPSimpleMark = QueueSetup{Label: "dctcp-simplemark", Queue: cluster.QueueSimpleMark, Transport: tcp.DCTCP}
)

// REDSetups are the six series of the paper's Figures 2-4.
func REDSetups() []QueueSetup {
	return []QueueSetup{
		SetupECNDefault, SetupECNECE, SetupECNAckSyn,
		SetupDCTCPDefault, SetupDCTCPECE, SetupDCTCPAckSyn,
	}
}

// MarkingSetups are the true-simple-marking series (Section IV headline).
func MarkingSetups() []QueueSetup {
	return []QueueSetup{SetupECNSimpleMark, SetupDCTCPSimpleMark}
}

// Scale selects how much data the Terasort moves; the paper's shapes emerge
// at every scale, smaller scales just run faster.
type Scale struct {
	Nodes int
	// Racks > 1 arranges nodes under top-of-rack switches joined by a 2:1
	// oversubscribed aggregation switch (0/1 = single-switch star).
	Racks int
	// Spines > 0 (with Racks >= 2) upgrades the fabric to three-tier
	// leaf-spine: every leaf connects to every spine and cross-rack traffic
	// is ECMP-hashed across them.
	Spines int
	// Oversub is the rack oversubscription factor shaping the default core
	// rate on multi-rack fabrics (0 = the default of 2).
	Oversub   float64
	InputSize units.ByteSize
	BlockSize units.ByteSize
	Reducers  int
	// Shards partitions the event loop by fabric slice for intra-run
	// parallelism: 0/1 = serial, cluster.ShardAuto (-1) = GOMAXPROCS-aware
	// on leaf-spine fabrics, n > 1 = explicit. Results are bit-identical at
	// every shard count, so Shards changes wall time, never metrics.
	Shards int
}

// TestScale is small enough for unit tests (seconds of wall time per grid).
func TestScale() Scale {
	return Scale{Nodes: 8, InputSize: 128 * units.MiB, BlockSize: 16 * units.MiB, Reducers: 8}
}

// PaperScale approximates the paper's testbed pressure: 16 nodes, one map
// wave, 1 GiB through the shuffle.
func PaperScale() Scale {
	return Scale{Nodes: 16, InputSize: 1 * units.GiB, BlockSize: 64 * units.MiB, Reducers: 32}
}

// Config fully describes one run.
type Config struct {
	Setup       QueueSetup
	Buffer      cluster.BufferDepth
	TargetDelay units.Duration
	Scale       Scale
	Seed        uint64
	// AckWireSize overrides the pure-ACK wire size (0 = default 40 B).
	AckWireSize units.ByteSize
	// ByteMode switches the AQM to per-byte thresholds (ablation).
	ByteMode bool
	// Instantaneous switches RED to instantaneous queue length (ablation;
	// Wu et al. recommendation).
	Instantaneous bool
	// MinRTO overrides TCP's minimum RTO (0 = default 200 ms).
	MinRTO units.Duration
	// DisableSACK turns selective acknowledgements off (ablation).
	DisableSACK bool
	// DisableDelAck turns delayed ACKs off (ablation: doubles the ACK rate
	// and with it the exposure to per-packet AQM drops).
	DisableDelAck bool
	// Degrade lists inter-switch link degradations applied after the fabric
	// is built (fail or derate; see cluster.LinkDegrade).
	Degrade []cluster.LinkDegrade
	// LinkRate and LinkDelay parameterize every edge link (0 = the cluster
	// default: 10 Gbps, 5 µs).
	LinkRate  units.Bandwidth `json:"link_rate_bps,omitempty"`
	LinkDelay units.Duration  `json:"link_delay_ns,omitempty"`
	// WatchTiers enables per-tier queue-occupancy aggregation; the means
	// land in Result.TierOccupancy.
	WatchTiers bool
	// Workload, when non-nil, replaces the single run-to-completion
	// Terasort with the open-loop multi-tenant workload engine: a stream
	// of jobs through a shared-slot scheduler plus an optional RPC client
	// fleet, measured in steady state (see RunTenants). Run then reports
	// the figure metrics over the measurement window.
	Workload *WorkloadConfig `json:"workload,omitempty"`
	// Hybrid enables the fluid/packet hybrid engine: uncontended transfers
	// run as fluid rates, ports crossing FluidThreshold utilization or
	// seeing AQM activity promote their flows to packet level. Off is
	// literally the pure packet engine.
	Hybrid bool `json:"hybrid,omitempty"`
	// FluidThreshold is the hybrid utilization threshold u in [0, 1]; 0
	// with Hybrid set keeps every transfer at packet level (exactness mode).
	FluidThreshold float64 `json:"fluid_threshold,omitempty"`
	// PromoteHysteresis is the quiet window before a promoted port demotes
	// back to fluid (0 = the cluster default of 1ms).
	PromoteHysteresis units.Duration `json:"promote_hysteresis_ns,omitempty"`
	// Macro, when non-nil, replaces the drive workload with the
	// macro-scale open-loop transfer mix (see RunMacro) — the 10k-node
	// regime the hybrid engine exists for.
	Macro *MacroWorkload `json:"macro,omitempty"`
	// Notify enables switch-originated congestion notifications: ports
	// crossing NotifyThreshold occupancy emit a wire-delayed notification
	// that reroutes flows off the hot path and/or throttles the offending
	// sources. Off is literally the pre-notification engine.
	Notify bool `json:"notify,omitempty"`
	// NotifyThreshold is the occupancy, in packets, that triggers a
	// notification (0 with Notify set = the cluster default of 64).
	NotifyThreshold int `json:"notify_threshold,omitempty"`
	// NotifyReroute / NotifyThrottle select the notification mechanisms;
	// with Notify set and neither selected, both engage.
	NotifyReroute  bool `json:"notify_reroute,omitempty"`
	NotifyThrottle bool `json:"notify_throttle,omitempty"`
	// Facade enables the drop-in net façade: the cluster carries a
	// simnet.Net so unmodified net/http tenants run over the simulated
	// fabric. Off is literally the pre-façade engine.
	Facade bool `json:"facade,omitempty"`
}

// String identifies the run compactly.
func (c *Config) String() string {
	return fmt.Sprintf("%s/%s/d=%v", c.Setup.Label, c.Buffer, c.TargetDelay)
}

// Result carries everything the figures consume from one run.
type Result struct {
	Config Config

	Runtime           units.Duration
	ThroughputPerNode units.Bandwidth
	MeanLatency       units.Duration
	P99Latency        units.Duration

	ShuffledBytes units.ByteSize
	EarlyDrops    uint64
	OverflowDrops uint64
	AckDropShare  float64 // fraction of drops that hit pure ACKs
	Marks         uint64
	Retransmits   uint64
	RTOEvents     uint64
	SynRetries    uint64
	FetchRetries  int

	// Substrate accounting: how many discrete events the engine executed and
	// how far the simulated clock ran. The benchmark harness divides wall
	// time by these to report events/sec and ns per simulated second.
	Events  uint64
	SimTime units.Duration

	// TierOccupancy is the time-weighted queued packets per fabric tier
	// (the sum of the tier's per-port mean queue lengths), indexed by
	// metrics.Tier. Populated only when Config.WatchTiers is set.
	TierOccupancy [metrics.TierCount]float64

	// Congestion-notification lifecycle counters (zero unless Config.Notify).
	Notifications      uint64
	HotEpisodes        uint64
	Rerouted           uint64
	Throttles          uint64
	ThrottleRecoveries uint64
}

// Run executes one Terasort under the configuration and returns its result.
// When cfg.Workload is set, the multi-tenant engine runs instead and the
// figure metrics are reported over its measurement window. Runs are
// deterministic in (Config, Seed).
func Run(cfg Config) Result {
	if cfg.Workload != nil {
		return RunTenants(cfg, *cfg.Workload).Result
	}
	r, _ := RunJob(cfg)
	return r
}

// ClusterSpec lowers cfg onto the cluster spec: fabric, links, queues,
// transport and every TCP ablation. It is the one lowering: every harness
// builds its cluster through Build, and the ecnsim builder validates against
// it, so a Config knob reaches every harness or none.
func ClusterSpec(cfg Config) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Nodes = cfg.Scale.Nodes
	spec.Racks = cfg.Scale.Racks
	spec.Spines = cfg.Scale.Spines
	spec.Oversub = cfg.Scale.Oversub
	spec.Degrade = cfg.Degrade
	if cfg.LinkRate > 0 {
		spec.LinkRate = cfg.LinkRate
	}
	if cfg.LinkDelay > 0 {
		spec.LinkDelay = cfg.LinkDelay
	}
	spec.Queue = cfg.Setup.Queue
	spec.Buffer = cfg.Buffer
	spec.TargetDelay = cfg.TargetDelay
	spec.Protect = cfg.Setup.Protect
	spec.Transport = cfg.Setup.Transport
	spec.Seed = cfg.Seed
	spec.ByteMode = cfg.ByteMode
	spec.Instantaneous = cfg.Instantaneous
	spec.Shards = cfg.Scale.Shards
	spec.Hybrid = cfg.Hybrid
	spec.FluidThreshold = cfg.FluidThreshold
	spec.PromoteHysteresis = cfg.PromoteHysteresis
	spec.Notify = cfg.Notify
	spec.NotifyThreshold = cfg.NotifyThreshold
	spec.NotifyReroute = cfg.NotifyReroute
	spec.NotifyThrottle = cfg.NotifyThrottle
	spec.Facade = cfg.Facade

	tcpCfg := tcp.DefaultConfig(spec.Transport)
	if cfg.AckWireSize > 0 {
		tcpCfg.AckWireSize = cfg.AckWireSize
	}
	if cfg.MinRTO > 0 {
		tcpCfg.MinRTO = cfg.MinRTO
	}
	if cfg.DisableSACK {
		tcpCfg.SACK = false
	}
	if cfg.DisableDelAck {
		tcpCfg.DelayedAck = false
	}
	spec.TCPOverride = &tcpCfg
	return spec
}

// Build constructs the cluster cfg describes: ClusterSpec, then cluster.New,
// then per-tier occupancy watching when cfg.WatchTiers is set.
func Build(cfg Config) *cluster.Cluster {
	c := cluster.New(ClusterSpec(cfg))
	if cfg.WatchTiers {
		c.WatchTierOccupancy()
	}
	return c
}

// Terasort returns the Terasort job the scale describes.
func (s Scale) Terasort() mapred.JobConfig {
	job := mapred.TerasortConfig(s.InputSize, s.Reducers)
	job.BlockSize = s.BlockSize
	return job
}

// measure fills the fields every harness reports from a finished run c:
// substrate accounting, drop, mark and transport counters, packet latency,
// the notifier's counters and, under Config.WatchTiers, tier occupancy.
// Events come from the whole shard group, never one engine.
func (r *Result) measure(c *cluster.Cluster) {
	m := c.Metrics
	r.Events = c.Events()
	r.SimTime = units.Duration(c.Now())
	r.EarlyDrops, r.OverflowDrops = m.Drops()
	r.Marks = m.Marked.Total()
	r.AckDropShare = m.AckDropShare()
	r.MeanLatency = m.MeanLatency()
	r.P99Latency = m.P99Latency()
	r.Retransmits = c.TCP.Retransmits()
	r.RTOEvents = c.TCP.RTOEvents
	r.SynRetries = c.TCP.SynRetries
	if c.Notify != nil {
		s := c.Notify.Stats()
		r.Notifications = s.Notifications
		r.HotEpisodes = s.HotEpisodes
		r.Rerouted = s.Rerouted
		r.Throttles = s.Throttles
		r.ThrottleRecoveries = s.Recoveries
	}
	if r.Config.WatchTiers {
		at := c.Now().Seconds()
		for t := metrics.Tier(0); t < metrics.TierCount; t++ {
			r.TierOccupancy[t] = m.TierOccupancyAt(t, at)
		}
	}
}

// seconds converts a sample statistic in seconds to a Duration.
func seconds(sec float64) units.Duration {
	return units.Duration(sec * float64(units.Second))
}

// RunJob is Run exposing the finished MapReduce job as well, for callers
// that report per-phase breakdowns (map waves, shuffle windows) beyond the
// figure metrics.
func RunJob(cfg Config) (Result, *mapred.Job) {
	c := Build(cfg)
	job := c.RunJob(cfg.Scale.Terasort())
	return jobResult(cfg, c, job), job
}

// jobResult reports a finished Terasort on c: runtime, throughput over the
// shuffle window and the job's own counters, plus the common fields.
func jobResult(cfg Config, c *cluster.Cluster, job *mapred.Job) Result {
	lo, hi := job.ShuffleWindow()
	res := Result{
		Config:            cfg,
		Runtime:           job.Runtime(),
		ThroughputPerNode: c.Metrics.MeanThroughputPerNode(cfg.Scale.Nodes, lo, hi),
		ShuffledBytes:     job.ShuffledBytes(),
		FetchRetries:      job.FetchRetries,
	}
	res.measure(c)
	return res
}
