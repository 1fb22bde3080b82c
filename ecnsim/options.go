package ecnsim

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/mapred"
	"repro/internal/qdisc"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// QueueKind selects the switch egress discipline.
type QueueKind uint8

// Queue disciplines under study. RED, SimpleMark and DropTail carry the
// paper's evaluation; CoDel and PIE extend the protection-mode analysis.
const (
	DropTail QueueKind = iota
	RED
	SimpleMark
	CoDel
	PIE
)

// String names the discipline as the CLIs spell it.
func (k QueueKind) String() string {
	switch k {
	case DropTail:
		return "droptail"
	case RED:
		return "red"
	case SimpleMark:
		return "simplemark"
	case CoDel:
		return "codel"
	case PIE:
		return "pie"
	}
	return fmt.Sprintf("queue(%d)", uint8(k))
}

// ParseQueue parses a CLI queue name: droptail | red | simplemark | codel | pie.
func ParseQueue(s string) (QueueKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "droptail":
		return DropTail, nil
	case "red":
		return RED, nil
	case "simplemark":
		return SimpleMark, nil
	case "codel":
		return CoDel, nil
	case "pie":
		return PIE, nil
	}
	return 0, fmt.Errorf("ecnsim: unknown queue %q (want droptail|red|simplemark|codel|pie)", s)
}

// ProtectMode selects which non-ECT packets an AQM shields from early drops
// — the paper's proposed fix.
type ProtectMode uint8

// Protection modes.
const (
	// NoProtection is the default behaviour of current AQM implementations:
	// unmarkable packets (pure ACKs, SYNs) are dropped early.
	NoProtection ProtectMode = iota
	// ECE shields packets whose TCP header carries the ECN-Echo flag.
	ECE
	// ACKSYN shields pure ACKs and SYN/SYN-ACKs — the paper's main proposal.
	ACKSYN
)

// String names the mode as the CLIs spell it.
func (m ProtectMode) String() string {
	switch m {
	case NoProtection:
		return "default"
	case ECE:
		return "ece-bit"
	case ACKSYN:
		return "ack+syn"
	}
	return fmt.Sprintf("protect(%d)", uint8(m))
}

// ParseProtect parses a CLI protection mode: default | ece-bit | ack+syn.
func ParseProtect(s string) (ProtectMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "default", "none", "":
		return NoProtection, nil
	case "ece-bit", "ece":
		return ECE, nil
	case "ack+syn", "acksyn":
		return ACKSYN, nil
	}
	return 0, fmt.Errorf("ecnsim: unknown protection mode %q (want default|ece-bit|ack+syn)", s)
}

func (m ProtectMode) internal() qdisc.ProtectMode {
	switch m {
	case ECE:
		return qdisc.ProtectECE
	case ACKSYN:
		return qdisc.ProtectACKSYN
	}
	return qdisc.ProtectNone
}

// TransportKind selects the TCP variant every node runs.
type TransportKind uint8

// Transports.
const (
	// TCP is NewReno without ECN.
	TCP TransportKind = iota
	// TCPECN is NewReno with classic RFC 3168 ECN.
	TCPECN
	// DCTCP is Data Center TCP (RFC 8257).
	DCTCP
)

// String names the transport as the CLIs spell it.
func (t TransportKind) String() string {
	switch t {
	case TCP:
		return "tcp"
	case TCPECN:
		return "tcp-ecn"
	case DCTCP:
		return "dctcp"
	}
	return fmt.Sprintf("transport(%d)", uint8(t))
}

// ParseTransport parses a CLI transport name: tcp | tcp-ecn | dctcp.
func ParseTransport(s string) (TransportKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tcp", "reno":
		return TCP, nil
	case "tcp-ecn", "ecn":
		return TCPECN, nil
	case "dctcp":
		return DCTCP, nil
	}
	return 0, fmt.Errorf("ecnsim: unknown transport %q (want tcp|tcp-ecn|dctcp)", s)
}

func (k QueueKind) internal() cluster.QueueKind {
	switch k {
	case RED:
		return cluster.QueueRED
	case SimpleMark:
		return cluster.QueueSimpleMark
	case CoDel:
		return cluster.QueueCoDel
	case PIE:
		return cluster.QueuePIE
	}
	return cluster.QueueDropTail
}

func (t TransportKind) internal() tcp.Variant {
	switch t {
	case TCPECN:
		return tcp.RenoECN
	case DCTCP:
		return tcp.DCTCP
	}
	return tcp.Reno
}

// labelPrefix is the series-name prefix the figures key on.
func (t TransportKind) labelPrefix() string {
	switch t {
	case TCPECN:
		return "ecn"
	case DCTCP:
		return "dctcp"
	}
	return "tcp"
}

// BufferDepth selects the per-port switch buffer density the paper contrasts.
type BufferDepth uint8

// Buffer depths.
const (
	// Shallow is a commodity switch: 1 MB per port.
	Shallow BufferDepth = iota
	// Deep is a big-buffer switch: 10 MB per port.
	Deep
)

// String names the depth.
func (b BufferDepth) String() string {
	if b == Deep {
		return "deep"
	}
	return "shallow"
}

// ParseBuffer parses a CLI buffer depth: shallow | deep.
func ParseBuffer(s string) (BufferDepth, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "shallow", "":
		return Shallow, nil
	case "deep":
		return Deep, nil
	}
	return 0, fmt.Errorf("ecnsim: unknown buffer depth %q (want shallow|deep)", s)
}

func (b BufferDepth) internal() cluster.BufferDepth {
	if b == Deep {
		return cluster.Deep
	}
	return cluster.Shallow
}

// ParseSize parses a byte size like "64MiB", "1GiB", "1500B" (also decimal
// "64MB"). All commands parse sizes through this one function.
func ParseSize(s string) (int64, error) {
	v, err := units.ParseByteSize(s)
	return int64(v), err
}

// FormatSize renders a byte count in binary units, as the CLIs print it.
func FormatSize(n int64) string { return units.ByteSize(n).String() }

// Cluster is a validated, immutable experiment configuration: the simulated
// Hadoop cluster (fabric, queues, transport) plus the workload scale every
// scenario interprets. Build one with NewCluster; the zero value is not
// usable.
type Cluster struct {
	nodes, racks int
	spines       int
	oversub      float64
	degrade      []cluster.LinkDegrade
	linkRate     int64 // bits per second
	linkDelay    time.Duration

	queue     QueueKind
	protect   ProtectMode
	transport TransportKind
	// transportSet only gates whether a scenario default may overwrite
	// transport; the resolved transport itself is fingerprinted via
	// Setup.Transport, so the flag stays out of the cache key.
	//ecnlint:allow fingerprintcoverage resolution bookkeeping; the resolved transport is fingerprinted via Setup.Transport
	transportSet bool
	buffer       BufferDepth
	targetDelay  time.Duration

	seed uint64

	inputSize int64
	blockSize int64 // 0 = auto: inputSize/nodes
	reducers  int

	// Ablations.
	ackWireSize   int64
	byteMode      bool
	instantaneous bool
	minRTO        time.Duration
	disableSACK   bool
	disableDelAck bool

	// shards is the event-loop shard request: 0/1 = serial, -1 = auto
	// (cluster.ShardAuto), n > 1 = explicit. Lowered through scale() into
	// the experiment config, so it is part of the canonical form.
	shards int
	// Hybrid engine knobs. hybrid switches bulk transfers to the flow-level
	// fluid/packet hybrid engine; fluidThreshold and promoteHysteresis carry
	// resolved defaults (0.9, 1 ms) but lower only under hybrid, so every
	// Hybrid-off fingerprint is byte-identical to the pure packet engine's.
	hybrid            bool
	fluidThreshold    float64
	promoteHysteresis time.Duration
	// Congestion-notification knobs. notify arms switch-originated
	// notifications; notifyThreshold carries a resolved default (64 packets)
	// and reroute/throttle select the mechanisms (neither chosen = both,
	// resolved in NewCluster). All four lower only under notify, so every
	// Notify-off fingerprint is byte-identical to the pre-notification
	// engine's.
	notify          bool
	notifyThreshold int
	reroute         bool
	throttle        bool
	// facade arms the drop-in net façade (simnet.Net on the lowered
	// cluster). It lowers only when set, so every Facade-off fingerprint is
	// byte-identical to the pre-façade engine's.
	facade bool
	// warnings collects non-fatal configuration demotions (currently only
	// shard fallback); it changes nothing about what runs beyond what the
	// resolved fields already say.
	//ecnlint:allow fingerprintcoverage advisory only; the resolved shard count is fingerprinted via Scale.Shards
	warnings []error

	// Scenario knobs.
	senders     int // incast; 0 = nodes-1
	flowSize    int64
	rpcInterval time.Duration

	// Multi-tenant workload knobs (multijob / tenantmix; 0 values defer to
	// scenario defaults).
	jobArrivals  int // max jobs the arrival process admits
	arrivalKind  ArrivalKind
	arrivalMean  time.Duration
	fairShare    bool
	rpcClients   int
	rpcReqSize   int64
	rpcRespSize  int64
	rpcHeavyTail bool
	warmup       time.Duration
	measure      time.Duration
	window       time.Duration
	// windowSet only records that WithAggregationWindow was called so a zero
	// window can mean "scenario default"; the resolved window is
	// fingerprinted via the workload config.
	//ecnlint:allow fingerprintcoverage resolution bookkeeping; the resolved window is fingerprinted via the workload config
	windowSet bool
}

// Option configures a Cluster under construction. Options report invalid
// values as errors from NewCluster.
type Option func(*Cluster) error

// NewCluster resolves options over the paper's default testbed — 16 nodes on
// one 10 Gbps switch, shallow buffers, DropTail, a 1 GiB Terasort — and
// validates the result.
func NewCluster(opts ...Option) (*Cluster, error) {
	c := &Cluster{
		nodes:             16,
		racks:             1,
		linkRate:          int64(10 * units.Gbps),
		linkDelay:         5 * time.Microsecond,
		queue:             DropTail,
		targetDelay:       500 * time.Microsecond,
		seed:              1,
		inputSize:         int64(1 * units.GiB),
		blockSize:         int64(64 * units.MiB),
		reducers:          32,
		flowSize:          int64(4 * units.MiB),
		rpcInterval:       2 * time.Millisecond,
		arrivalKind:       PoissonArrivals,
		arrivalMean:       150 * time.Millisecond,
		fluidThreshold:    0.9,
		promoteHysteresis: 1 * time.Millisecond,
		notifyThreshold:   64,
		rpcReqSize:        128,
		rpcRespSize:       4096,
		warmup:            250 * time.Millisecond,
		measure:           2 * time.Second,
		window:            500 * time.Millisecond,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("ecnsim: nil option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if !c.transportSet {
		// The paper's convention: plain TCP on DropTail, classic ECN on
		// every marking-capable queue.
		if c.queue == DropTail {
			c.transport = TCP
		} else {
			c.transport = TCPECN
		}
	}
	if c.blockSize == 0 {
		c.blockSize = c.inputSize / int64(c.nodes)
		if c.blockSize <= 0 {
			c.blockSize = c.inputSize
		}
	}
	if c.senders == 0 {
		c.senders = c.nodes - 1
	}
	if c.notify && !c.reroute && !c.throttle {
		// Notify() without a mechanism choice engages both, mirroring the
		// cluster spec's resolution; resolving here keeps the fingerprint the
		// resolved form, so Notify() and Reroute()+Throttle() coincide.
		c.reroute, c.throttle = true, true
	}
	if c.shards > 1 && (c.spines == 0 || c.racks < 2) {
		// An explicit shard request on a fabric with no leaf/spine cut:
		// demote to serial (results are bit-identical anyway) and record a
		// typed warning instead of failing a configuration that runs fine.
		c.warnings = append(c.warnings, &ShardFallbackWarning{Requested: c.shards, Racks: c.racks, Spines: c.spines})
		c.shards = 1
	}
	if !c.windowSet && c.window > c.measure {
		// A short Measure with the default 500 ms window would be rejected;
		// when the caller never chose a window, follow the measure phase
		// down instead of demanding an explicit MeasureWindow.
		c.window = c.measure
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Cluster) validate() error {
	switch {
	case c.queue != DropTail && c.targetDelay <= 0:
		return fmt.Errorf("ecnsim: %s needs a positive target delay", c.queue)
	case c.protect != NoProtection && (c.queue == DropTail || c.queue == SimpleMark):
		return fmt.Errorf("ecnsim: protection mode %s requires an AQM queue (red|codel|pie), not %s", c.protect, c.queue)
	case c.blockSize > c.inputSize:
		return fmt.Errorf("ecnsim: block size %s exceeds input size %s",
			FormatSize(c.blockSize), FormatSize(c.inputSize))
	case c.senders >= c.nodes:
		return fmt.Errorf("ecnsim: %d incast senders need at least %d nodes", c.senders, c.senders+1)
	case c.window <= 0 || c.window > c.measure:
		return fmt.Errorf("ecnsim: MeasureWindow(%v) must be in (0, Measure(%v)]", c.window, c.measure)
	case c.measure/c.window >= 1000:
		return fmt.Errorf("ecnsim: Measure(%v)/MeasureWindow(%v) yields %d windows (max 1000 — the per-window result keys are padded to three digits)",
			c.measure, c.window, c.measure/c.window)
	case c.warmup < 0:
		return fmt.Errorf("ecnsim: Warmup(%v) must be non-negative", c.warmup)
	}
	// The internal workload config is the final authority on the tenant
	// knobs, exactly as the lowered cluster spec is on the fabric.
	wc := c.workloadConfig()
	if err := wc.Validate(); err != nil {
		return fmt.Errorf("ecnsim: %w", err)
	}
	if err := c.validateDegrade(); err != nil {
		return err
	}
	// Final authority on fabric validity is the spec the scenarios actually
	// build from.
	spec := experiment.ClusterSpec(c.experimentConfig())
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("ecnsim: %w", err)
	}
	return nil
}

// validateDegrade checks each DegradeLink against the configured fabric
// shape, so a typo'd switch name or a partitioning failure surfaces from
// NewCluster instead of panicking mid-run. Name resolution and the
// spine-survivor condition come from internal/topo (topo.NamedLink,
// topo.SpinePathsSurvive), the authority on what Build constructs.
func (c *Cluster) validateDegrade() error {
	if len(c.degrade) == 0 {
		return nil
	}
	if c.racks <= 1 {
		return fmt.Errorf("ecnsim: DegradeLink needs inter-switch links — configure Racks(>=2)")
	}
	failed := make(map[[2]int]bool) // {leaf, spine} links taken out by Factor == 0
	for _, d := range c.degrade {
		i, j, ok := topo.NamedLink(c.racks, c.spines, d.From, d.To)
		if !ok {
			return fmt.Errorf("ecnsim: DegradeLink(%q, %q): no such inter-switch link on a %d-rack/%d-spine fabric", d.From, d.To, c.racks, c.spines)
		}
		if d.Factor != 0 {
			continue
		}
		if c.spines == 0 {
			return fmt.Errorf("ecnsim: DegradeLink(%q, %q, 0): failing a two-tier uplink would partition the fabric — use a spine fabric (Spines) or a non-zero derate factor", d.From, d.To)
		}
		failed[[2]int{i, j}] = true
	}
	// The failures must jointly leave every leaf pair a spine whose links to
	// both leaves survive — the same condition the route rebuild enforces —
	// so a partitioning combination errors here instead of panicking inside
	// the first run.
	if len(failed) > 0 {
		if a, b, ok := topo.SpinePathsSurvive(c.racks, c.spines, failed); !ok {
			return fmt.Errorf("ecnsim: DegradeLink: the failed links leave no spine path between leaf%d and leaf%d", a, b)
		}
	}
	return nil
}

// Nodes configures the cluster size (>= 2).
func Nodes(n int) Option {
	return func(c *Cluster) error {
		if n < 2 {
			return fmt.Errorf("ecnsim: Nodes(%d): need at least 2 nodes", n)
		}
		c.nodes = n
		return nil
	}
}

// Racks arranges nodes under top-of-rack switches joined by a 2:1
// oversubscribed aggregation switch (0 or 1 = single-switch star).
func Racks(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: Racks(%d): must be non-negative", n)
		}
		c.racks = n
		return nil
	}
}

// Spines adds a spine tier above the racks: a three-tier leaf-spine fabric
// where every leaf switch connects to every spine and cross-rack traffic is
// ECMP-hashed across the spines by a per-run seeded 5-tuple flow hash.
// Requires Racks >= 2. 0 keeps the two-tier (or star) fabric.
func Spines(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: Spines(%d): must be non-negative", n)
		}
		c.spines = n
		return nil
	}
}

// ShardFallbackWarning records an explicit Shards(n) request that was
// demoted to serial because the configured fabric has no leaf/spine cut to
// partition (it needs Spines >= 1 and Racks >= 2). The run proceeds
// serially with bit-identical results; the warning is advisory.
type ShardFallbackWarning struct {
	// Requested is the shard count the option asked for.
	Requested int
	// Racks and Spines describe the fabric that could not be partitioned.
	Racks, Spines int
}

// Error describes the demotion.
func (w *ShardFallbackWarning) Error() string {
	return fmt.Sprintf("ecnsim: Shards(%d) demoted to serial: a %d-rack/%d-spine fabric has no leaf/spine cut (need Racks >= 2 and Spines >= 1)",
		w.Requested, w.Racks, w.Spines)
}

// AutoShards is the sentinel Shards() reports while ShardAuto is in effect:
// the actual count is sized to the machine and fabric when a run starts.
const AutoShards = cluster.ShardAuto

// Shards requests an explicit event-loop shard count for intra-run
// parallelism: the fabric is partitioned at the leaf/spine boundary and the
// partitions run concurrently under conservative lookahead, with results
// bit-identical to the serial engine. n must be >= 1; 1 is the serial
// engine. On fabrics without a leaf/spine cut an n > 1 request falls back
// to serial with a ShardFallbackWarning (see Warnings); on leaf-spine
// fabrics n must not exceed the leaf (rack) count, which NewCluster rejects.
// Use ShardAuto to size the shard count to the machine instead.
func Shards(n int) Option {
	return func(c *Cluster) error {
		if n < 1 {
			return fmt.Errorf("ecnsim: Shards(%d): need at least 1 (use ShardAuto for automatic sizing)", n)
		}
		c.shards = n
		return nil
	}
}

// ShardAuto sizes the event-loop shard count automatically:
// min(GOMAXPROCS, racks) on leaf-spine fabrics, serial everywhere else.
// Unlike an explicit Shards(n) it never warns — it adapts to whatever
// fabric the other options configure.
func ShardAuto() Option {
	return func(c *Cluster) error {
		c.shards = cluster.ShardAuto
		return nil
	}
}

// Hybrid enables the flow-level hybrid engine: bulk transfers whose paths
// sit below the fluid utilization threshold run as fluid rates (FCT from
// max-min share-of-bottleneck math, completion as a single event) instead of
// packet exchanges; a port crossing the threshold — or observing an AQM
// marking episode — promotes every flow it carries to packet level, and
// demotes back after a quiet hysteresis window. Results stay bit-identical
// at any shard or worker count. Off (the default), the packet engine runs
// exactly as before — Hybrid() changes nothing unless a scenario's transfers
// go through the fluid admission path (macroscale; plus the shuffle fetches
// of the MapReduce scenarios).
func Hybrid() Option {
	return func(c *Cluster) error { c.hybrid = true; return nil }
}

// FluidThreshold sets the hybrid engine's port utilization threshold u in
// [0, 1]: a transfer is admitted fluidly only while every port on its path
// stays below u after admission. 0 keeps every transfer at packet level —
// the exactness mode, byte-identical to the pure packet engine. Takes effect
// only under Hybrid(); the resolved default is 0.9.
func FluidThreshold(u float64) Option {
	return func(c *Cluster) error {
		if u < 0 || u > 1 {
			return fmt.Errorf("ecnsim: FluidThreshold(%g): must be in [0, 1]", u)
		}
		c.fluidThreshold = u
		return nil
	}
}

// PromoteHysteresis sets the quiet window a promoted (packet-mode) port must
// observe — no AQM marks, utilization back under the threshold — before it
// demotes back to fluid service. Takes effect only under Hybrid(); the
// resolved default is 1 ms.
func PromoteHysteresis(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: PromoteHysteresis(%v): must be positive", d)
		}
		c.promoteHysteresis = d
		return nil
	}
}

// Notify enables switch-originated congestion notifications: a switch egress
// whose queue crosses the notification threshold emits one notification per
// episode, propagating at the fabric's wire delay, that steers ECMP
// reselection off the hot path and throttles the offending sources. Notify()
// alone engages both mechanisms; combine with Reroute() or Throttle() to
// select one. Results stay bit-identical at any shard or worker count. Off
// (the default), the engine runs exactly as before.
func Notify() Option {
	return func(c *Cluster) error { c.notify = true; return nil }
}

// NotifyThreshold sets the queue occupancy, in packets, at which a switch
// egress emits a congestion notification. Takes effect only under Notify()
// (or Reroute()/Throttle()); the resolved default is 64.
func NotifyThreshold(n int) Option {
	return func(c *Cluster) error {
		if n < 1 {
			return fmt.Errorf("ecnsim: NotifyThreshold(%d): must be at least 1 packet", n)
		}
		c.notifyThreshold = n
		return nil
	}
}

// Reroute enables congestion-aware ECMP path reselection (implies Notify()):
// flows hashed onto a notified-hot port re-salt onto a cold candidate of the
// same route group, holding the alternate for the affinity window so paths
// don't flap.
func Reroute() Option {
	return func(c *Cluster) error { c.notify, c.reroute = true, true; return nil }
}

// Throttle enables notification-driven source injection gating (implies
// Notify()): hosts whose packets cross a notified-hot queue have their uplink
// paced down by a token-bucket gate that decays back to line rate after a
// quiet period.
func Throttle() Option {
	return func(c *Cluster) error { c.notify, c.throttle = true, true; return nil }
}

// Facade enables the drop-in net façade: the lowered cluster carries a
// simnet.Net whose DialContext and Listen are stdlib-shaped, so unmodified
// net/http code runs as a tenant over the simulated fabric under the
// cooperative virtual-time gate (DESIGN.md §2.9). Same seed, same bytes: a
// façade workload's ResultSet is byte-identical at every shard and worker
// count. Off (the default), the engine runs exactly as before — a Facade-off
// configuration's fingerprint is byte-identical to the pre-façade engine's.
func Facade() Option {
	return func(c *Cluster) error { c.facade = true; return nil }
}

// Oversub sets the rack oversubscription factor shaping the default core
// rate on multi-rack fabrics: a rack's total uplink capacity is its ingress
// divided by this factor (split across the spines on leaf-spine fabrics).
// 0 keeps the historical default of 2.
func Oversub(f float64) Option {
	return func(c *Cluster) error {
		if f < 0 {
			return fmt.Errorf("ecnsim: Oversub(%g): must be non-negative", f)
		}
		c.oversub = f
		return nil
	}
}

// DegradeLink fails or derates one inter-switch link right after the fabric
// is built. factor == 0 fails the link (routes are rebuilt around it; the
// fabric must have an alternate path, so this needs a spine tier), 0 <
// factor < 1 derates the link to that fraction of its built rate (routes
// unchanged — ECMP keeps hashing flows onto the slow path). Switch names
// follow the builders: "leaf0".."leafR-1" / "spine0".."spineS-1" on
// leaf-spine fabrics, "tor0".."torR-1" / "agg0" on two-tier. The option can
// be repeated to degrade several links.
func DegradeLink(from, to string, factor float64) Option {
	return func(c *Cluster) error {
		d := cluster.LinkDegrade{From: from, To: to, Factor: factor}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("ecnsim: DegradeLink(%q, %q, %g): %w", from, to, factor, err)
		}
		c.degrade = append(c.degrade, d)
		return nil
	}
}

// Queue selects the switch egress discipline.
func Queue(k QueueKind) Option {
	return func(c *Cluster) error {
		if k > PIE {
			return fmt.Errorf("ecnsim: Queue(%d): unknown queue kind", k)
		}
		c.queue = k
		return nil
	}
}

// Protect selects the AQM's non-ECT protection mode (RED, CoDel, PIE only).
func Protect(m ProtectMode) Option {
	return func(c *Cluster) error {
		if m > ACKSYN {
			return fmt.Errorf("ecnsim: Protect(%d): unknown protection mode", m)
		}
		c.protect = m
		return nil
	}
}

// Transport selects the TCP variant all nodes run. Unset, it defaults to TCP
// on DropTail and TCPECN on every other queue.
func Transport(t TransportKind) Option {
	return func(c *Cluster) error {
		if t > DCTCP {
			return fmt.Errorf("ecnsim: Transport(%d): unknown transport", t)
		}
		c.transport = t
		c.transportSet = true
		return nil
	}
}

// Buffer selects the switch buffer depth.
func Buffer(b BufferDepth) Option {
	return func(c *Cluster) error {
		if b > Deep {
			return fmt.Errorf("ecnsim: Buffer(%d): unknown buffer depth", b)
		}
		c.buffer = b
		return nil
	}
}

// TargetDelay sets the AQM knob the paper sweeps: RED/CoDel/PIE thresholds
// and the SimpleMark threshold derive from it. Ignored by DropTail.
func TargetDelay(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: TargetDelay(%v): must be positive", d)
		}
		c.targetDelay = d
		return nil
	}
}

// LinkRate sets every edge link's bandwidth in bits per second.
func LinkRate(bps int64) Option {
	return func(c *Cluster) error {
		if bps <= 0 {
			return fmt.Errorf("ecnsim: LinkRate(%d): must be positive", bps)
		}
		c.linkRate = bps
		return nil
	}
}

// LinkDelay sets every edge link's propagation delay (positive: a sharded
// fabric's lookahead is its minimum link delay).
func LinkDelay(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: LinkDelay(%v): must be positive", d)
		}
		c.linkDelay = d
		return nil
	}
}

// Seed sets the base seed driving every random stream. Results are
// deterministic in (options, seed).
func Seed(s uint64) Option {
	return func(c *Cluster) error {
		c.seed = s
		return nil
	}
}

// InputSize sets the Terasort input in bytes.
func InputSize(n int64) Option {
	return func(c *Cluster) error {
		if n <= 0 {
			return fmt.Errorf("ecnsim: InputSize(%d): must be positive", n)
		}
		c.inputSize = n
		return nil
	}
}

// BlockSize sets the HDFS block size in bytes. 0 means auto (input/nodes).
func BlockSize(n int64) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: BlockSize(%d): must be non-negative", n)
		}
		c.blockSize = n
		return nil
	}
}

// Reducers sets the number of reduce tasks.
func Reducers(n int) Option {
	return func(c *Cluster) error {
		if n < 1 {
			return fmt.Errorf("ecnsim: Reducers(%d): need at least 1", n)
		}
		c.reducers = n
		return nil
	}
}

// TestScale shrinks the workload to unit-test size: 8 nodes, 128 MiB input,
// 16 MiB blocks, 8 reducers (seconds of wall time per run).
func TestScale() Option {
	return func(c *Cluster) error {
		c.nodes, c.inputSize, c.blockSize, c.reducers = 8, int64(128*units.MiB), int64(16*units.MiB), 8
		return nil
	}
}

// PaperScale approximates the paper's testbed pressure: 16 nodes, 1 GiB
// through the shuffle, 64 MiB blocks, 32 reducers.
func PaperScale() Option {
	return func(c *Cluster) error {
		c.nodes, c.inputSize, c.blockSize, c.reducers = 16, int64(1*units.GiB), int64(64*units.MiB), 32
		return nil
	}
}

// AckWireSize overrides the pure-ACK wire size in bytes (ablation).
func AckWireSize(n int64) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: AckWireSize(%d): must be non-negative", n)
		}
		c.ackWireSize = n
		return nil
	}
}

// ByteMode switches the AQM to per-byte thresholds (ablation; real switches
// are per-packet, per the paper).
func ByteMode(on bool) Option {
	return func(c *Cluster) error { c.byteMode = on; return nil }
}

// Instantaneous switches RED to instantaneous queue measurement (ablation).
func Instantaneous(on bool) Option {
	return func(c *Cluster) error { c.instantaneous = on; return nil }
}

// MinRTO overrides TCP's minimum retransmission timeout (0 = default 200 ms).
func MinRTO(d time.Duration) Option {
	return func(c *Cluster) error {
		if d < 0 {
			return fmt.Errorf("ecnsim: MinRTO(%v): must be non-negative", d)
		}
		c.minRTO = d
		return nil
	}
}

// DisableSACK turns selective acknowledgements off (ablation).
func DisableSACK(off bool) Option {
	return func(c *Cluster) error { c.disableSACK = off; return nil }
}

// DisableDelAck turns delayed ACKs off (ablation: doubles the ACK rate).
func DisableDelAck(off bool) Option {
	return func(c *Cluster) error { c.disableDelAck = off; return nil }
}

// Senders sets the incast scenario's sender count (0 = nodes-1).
func Senders(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: Senders(%d): must be non-negative", n)
		}
		c.senders = n
		return nil
	}
}

// FlowSize sets the incast scenario's per-sender transfer in bytes.
func FlowSize(n int64) Option {
	return func(c *Cluster) error {
		if n <= 0 {
			return fmt.Errorf("ecnsim: FlowSize(%d): must be positive", n)
		}
		c.flowSize = n
		return nil
	}
}

// RPCInterval sets the RPC issue period: the mixed scenario's closed-loop
// probe period, and each tenantmix fleet client's open-loop clock.
func RPCInterval(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: RPCInterval(%v): must be positive", d)
		}
		c.rpcInterval = d
		return nil
	}
}

// ArrivalKind selects the job inter-arrival distribution of the
// multi-tenant workload engine.
type ArrivalKind uint8

// Arrival kinds.
const (
	// PoissonArrivals draws exponential inter-arrival times (the default).
	PoissonArrivals ArrivalKind = iota
	// FixedArrivals submits jobs at exact intervals.
	FixedArrivals
)

// String names the kind as the CLIs spell it.
func (k ArrivalKind) String() string {
	if k == FixedArrivals {
		return "fixed"
	}
	return "poisson"
}

// ParseArrival parses a CLI arrival spec: "poisson:400ms" or "fixed:250ms"
// (the bare kind keeps the default mean).
func ParseArrival(s string) (ArrivalKind, time.Duration, error) {
	kindStr, meanStr, hasMean := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	var kind ArrivalKind
	switch kindStr {
	case "poisson", "":
		kind = PoissonArrivals
	case "fixed":
		kind = FixedArrivals
	default:
		return 0, 0, fmt.Errorf("ecnsim: unknown arrival kind %q (want poisson|fixed, e.g. \"poisson:400ms\")", kindStr)
	}
	if !hasMean {
		return kind, 0, nil
	}
	mean, err := time.ParseDuration(meanStr)
	if err != nil || mean <= 0 {
		return 0, 0, fmt.Errorf("ecnsim: bad arrival mean %q (want a positive duration like 400ms)", meanStr)
	}
	return kind, mean, nil
}

func (k ArrivalKind) internal() mapred.ArrivalKind {
	if k == FixedArrivals {
		return mapred.ArrivalFixed
	}
	return mapred.ArrivalPoisson
}

// JobArrivals caps how many batch jobs the multi-tenant arrival process
// admits (0 = scenario default; arrivals always stop when the measurement
// phase ends).
func JobArrivals(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: JobArrivals(%d): must be non-negative", n)
		}
		c.jobArrivals = n
		return nil
	}
}

// Arrivals selects the job inter-arrival process: Poisson or fixed, with
// the given mean.
func Arrivals(kind ArrivalKind, mean time.Duration) Option {
	return func(c *Cluster) error {
		if kind > FixedArrivals {
			return fmt.Errorf("ecnsim: Arrivals(%d): unknown arrival kind", kind)
		}
		if mean <= 0 {
			return fmt.Errorf("ecnsim: Arrivals(%v): mean must be positive", mean)
		}
		c.arrivalKind = kind
		c.arrivalMean = mean
		return nil
	}
}

// FairShare switches the multi-job slot scheduler from FIFO to fair-share
// (each free slot goes to the job running the fewest tasks of that type).
func FairShare(on bool) Option {
	return func(c *Cluster) error { c.fairShare = on; return nil }
}

// RPCClients sizes the tenantmix scenario's open-loop service fleet
// (client/server pairs spread across the cluster; 0 = scenario default).
func RPCClients(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("ecnsim: RPCClients(%d): must be non-negative", n)
		}
		if n > 1024 {
			return fmt.Errorf("ecnsim: RPCClients(%d): exceeds the 1024 port budget", n)
		}
		c.rpcClients = n
		return nil
	}
}

// RPCSizes sets the fleet's request and response payloads in bytes.
func RPCSizes(req, resp int64) Option {
	return func(c *Cluster) error {
		if req <= 0 || resp <= 0 {
			return fmt.Errorf("ecnsim: RPCSizes(%d, %d): must be positive", req, resp)
		}
		c.rpcReqSize, c.rpcRespSize = req, resp
		return nil
	}
}

// HeavyTailRPC switches fleet responses to a bounded Pareto distribution
// with mean RPCSizes' response value — result sets, not echo packets.
func HeavyTailRPC(on bool) Option {
	return func(c *Cluster) error { c.rpcHeavyTail = on; return nil }
}

// Warmup sets how long the multi-tenant run warms up before measurement
// (arrivals and clients run, nothing is recorded).
func Warmup(d time.Duration) Option {
	return func(c *Cluster) error {
		if d < 0 {
			return fmt.Errorf("ecnsim: Warmup(%v): must be non-negative", d)
		}
		c.warmup = d
		return nil
	}
}

// Measure sets the steady-state measurement phase length. If no
// MeasureWindow was chosen and the phase is shorter than the default
// window, the window follows the phase down (one window).
func Measure(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: Measure(%v): must be positive", d)
		}
		c.measure = d
		return nil
	}
}

// MeasureWindow sets the width of the per-window percentile series the
// measurement phase is split into (must not exceed Measure).
func MeasureWindow(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("ecnsim: MeasureWindow(%v): must be positive", d)
		}
		c.window = d
		c.windowSet = true
		return nil
	}
}

// Accessors.

// Nodes returns the configured cluster size.
func (c *Cluster) Nodes() int { return c.nodes }

// Racks returns the configured rack count (<=1 = single-switch star).
func (c *Cluster) Racks() int { return c.racks }

// Spines returns the configured spine count (0 = no spine tier).
func (c *Cluster) Spines() int { return c.spines }

// Seed returns the configured base seed.
func (c *Cluster) Seed() uint64 { return c.seed }

// Shards returns the resolved event-loop shard request: 0/1 = serial,
// AutoShards = sized to the machine at run time, n > 1 = explicit. An
// explicit request demoted by fabric shape has already been rewritten to 1
// here (see Warnings).
func (c *Cluster) Shards() int { return c.shards }

// Warnings returns the non-fatal configuration demotions NewCluster
// recorded (nil when the options resolved cleanly). Currently the only
// source is ShardFallbackWarning.
func (c *Cluster) Warnings() []error { return c.warnings }

// TargetDelay returns the configured AQM target delay.
func (c *Cluster) TargetDelay() time.Duration { return c.targetDelay }

// InputSize returns the configured Terasort input in bytes.
func (c *Cluster) InputSize() int64 { return c.inputSize }

// QueueKind returns the configured queue discipline.
func (c *Cluster) QueueKind() QueueKind { return c.queue }

// Buffer returns the configured switch buffer depth.
func (c *Cluster) Buffer() BufferDepth { return c.buffer }

// Label identifies the queue/transport/protection combination the way the
// paper's figure series are named ("droptail", "ecn-ack+syn",
// "dctcp-simplemark", "codel-default", ...).
func (c *Cluster) Label() string {
	switch c.queue {
	case DropTail:
		return "droptail"
	case SimpleMark:
		return c.transport.labelPrefix() + "-simplemark"
	case RED:
		return c.transport.labelPrefix() + "-" + c.protect.String()
	default:
		// CoDel/PIE series are canonically named for classic ECN
		// ("codel-default", matching the internal AQM setups); any other
		// transport is spelled out so rows stay distinguishable.
		label := c.queue.String()
		if c.transport != TCPECN {
			label += "-" + c.transport.labelPrefix()
		}
		return label + "-" + c.protect.String()
	}
}

// String summarizes the configuration compactly.
func (c *Cluster) String() string {
	return fmt.Sprintf("%s/%s/d=%v n=%d in=%s seed=%d",
		c.Label(), c.buffer, c.targetDelay, c.nodes, FormatSize(c.inputSize), c.seed)
}

// withSeed returns a copy of c with the seed replaced (for replications).
func (c *Cluster) withSeed(s uint64) *Cluster {
	d := *c
	d.seed = s
	return &d
}

// scale lowers the workload dimensions onto the internal experiment scale.
func (c *Cluster) scale() experiment.Scale {
	return experiment.Scale{
		Nodes:     c.nodes,
		Racks:     c.racks,
		Spines:    c.spines,
		Oversub:   c.oversub,
		InputSize: units.ByteSize(c.inputSize),
		BlockSize: units.ByteSize(c.blockSize),
		Reducers:  c.reducers,
		Shards:    c.shards,
	}
}

// workloadConfig lowers the tenant knobs onto the internal workload config.
// Zero-valued counts (JobArrivals, RPCClients) stay zero here; the tenant
// scenarios apply their own defaults before running.
func (c *Cluster) workloadConfig() experiment.WorkloadConfig {
	policy := mapred.SchedFIFO
	if c.fairShare {
		policy = mapred.SchedFair
	}
	return experiment.WorkloadConfig{
		Arrival:          c.arrivalKind.internal(),
		MeanInterarrival: c.arrivalMean,
		MaxJobs:          c.jobArrivals,
		Policy:           policy,
		RPCClients:       c.rpcClients,
		RPCReqSize:       int(c.rpcReqSize),
		RPCRespSize:      int(c.rpcRespSize),
		RPCHeavyTail:     c.rpcHeavyTail,
		RPCInterval:      c.rpcInterval,
		Warmup:           c.warmup,
		Measure:          c.measure,
		Window:           c.window,
	}
}

// canonicalConfig is the canonical, serializable identity of a Cluster: the
// same lowered experiment and workload configurations every scenario actually
// simulates from, plus the two knobs scenarios lower themselves (incast
// senders, flow size). Two Clusters with equal canonical JSON produce
// identical results by the determinism contract, which is what makes the
// form safe to hash into result-cache keys.
// The builder's bookkeeping fields (transportSet, windowSet) are deliberately
// absent — they change how defaults resolve, not what runs.
type canonicalConfig struct {
	Experiment experiment.Config         `json:"experiment"`
	Workload   experiment.WorkloadConfig `json:"workload"`
	Senders    int                       `json:"senders"`
	FlowSize   int64                     `json:"flow_size"`
}

// canonicalJSON serializes the resolved configuration deterministically
// (fixed field order, no maps). It rides the same lowering functions the
// scenarios run through, so a new option that reaches the simulation cannot
// silently stay out of the canonical form.
func (c *Cluster) canonicalJSON() []byte {
	b, err := json.Marshal(canonicalConfig{
		Experiment: c.experimentConfig(),
		Workload:   c.workloadConfig(),
		Senders:    c.senders,
		FlowSize:   c.flowSize,
	})
	if err != nil {
		// Every field is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("ecnsim: canonicalizing cluster: %v", err))
	}
	return b
}

// Fingerprint returns a stable content address for the fully resolved
// configuration: equal fingerprints mean equal simulation inputs under the
// current results version (see the campaign result cache). The seed is part
// of the fingerprint.
func (c *Cluster) Fingerprint() string {
	return experiment.CacheKey(experiment.ResultsVersion, string(c.canonicalJSON()))
}

// experimentConfig lowers the full configuration (including ablations) onto
// the internal experiment config.
func (c *Cluster) experimentConfig() experiment.Config {
	cfg := experiment.Config{
		Setup: experiment.QueueSetup{
			Label:     c.Label(),
			Queue:     c.queue.internal(),
			Protect:   c.protect.internal(),
			Transport: c.transport.internal(),
		},
		Buffer:        c.buffer.internal(),
		TargetDelay:   c.targetDelay,
		Scale:         c.scale(),
		Seed:          c.seed,
		AckWireSize:   units.ByteSize(c.ackWireSize),
		ByteMode:      c.byteMode,
		Instantaneous: c.instantaneous,
		MinRTO:        c.minRTO,
		DisableSACK:   c.disableSACK,
		DisableDelAck: c.disableDelAck,
		Degrade:       c.degrade,
		LinkRate:      units.Bandwidth(c.linkRate),
		LinkDelay:     c.linkDelay,
	}
	// The hybrid knobs lower only when the engine is on: a Hybrid-off
	// configuration's canonical form — and therefore its fingerprint — is
	// byte-identical to what it was before the hybrid engine existed.
	if c.hybrid {
		cfg.Hybrid = true
		cfg.FluidThreshold = c.fluidThreshold
		cfg.PromoteHysteresis = c.promoteHysteresis
	}
	// Same discipline for the notification knobs: a Notify-off canonical
	// form is byte-identical to the pre-notification engine's.
	if c.notify {
		cfg.Notify = true
		cfg.NotifyThreshold = c.notifyThreshold
		cfg.NotifyReroute = c.reroute
		cfg.NotifyThrottle = c.throttle
	}
	// And for the façade: Facade-off canonical forms predate the façade
	// byte for byte.
	if c.facade {
		cfg.Facade = true
	}
	return cfg
}
