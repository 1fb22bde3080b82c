// Package metrics implements the run-wide measurement pipeline. A Collector
// observes the netsim fabric and produces the three quantities every figure
// in the paper reports — job/flow runtime, per-node throughput, and average
// per-packet end-to-end network latency — plus the drop/mark breakdowns by
// packet kind that explain *why* (the paper's Figure 1 story).
package metrics

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/stats"
	"repro/internal/units"
)

// KindCounts indexes counters by packet.Kind.
type KindCounts [6]uint64

// Add increments the counter for kind k.
func (kc *KindCounts) Add(k packet.Kind) { kc[int(k)]++ }

// Get returns the counter for kind k.
func (kc *KindCounts) Get(k packet.Kind) uint64 { return kc[int(k)] }

// Total sums all kinds.
func (kc *KindCounts) Total() uint64 {
	var t uint64
	for _, v := range kc {
		t += v
	}
	return t
}

// Tier classifies a port by its place in the fabric, for per-tier occupancy
// aggregation on multi-tier topologies.
type Tier uint8

// Port tiers, bottom-up.
const (
	// TierHostUp is a host NIC uplink (host -> switch).
	TierHostUp Tier = iota
	// TierEdge is a switch -> host downlink (the paper's bottleneck queues).
	TierEdge
	// TierCoreUp is leaf->spine (or ToR->aggregation) — where cross-rack
	// shuffle traffic funnels into the oversubscribed core.
	TierCoreUp
	// TierCoreDown is spine->leaf (or aggregation->ToR).
	TierCoreDown
	// TierCount bounds the enum.
	TierCount
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierHostUp:
		return "hostup"
	case TierEdge:
		return "edge"
	case TierCoreUp:
		return "coreup"
	case TierCoreDown:
		return "coredown"
	}
	return "tier?"
}

// verdicts counts Enqueue verdicts by packet kind.
type verdicts struct {
	Enqueued        KindCounts
	Marked          KindCounts
	EarlyDropped    KindCounts
	OverflowDropped KindCounts
}

// add counts one verdict on a packet of kind k.
func (vc *verdicts) add(k packet.Kind, v qdisc.Verdict) {
	switch v {
	case qdisc.Enqueued:
		vc.Enqueued.Add(k)
	case qdisc.EnqueuedMarked:
		vc.Enqueued.Add(k)
		vc.Marked.Add(k)
	case qdisc.DroppedEarly:
		vc.EarlyDropped.Add(k)
	case qdisc.DroppedOverflow:
		vc.OverflowDropped.Add(k)
	}
}

// Collector aggregates everything the experiments report. Construct with
// New; it observes the fabric through its views (View for a serial run, one
// ShardView per shard of a sharded run), each subscribed to its shard.
type Collector struct {
	// Latency is the per-packet end-to-end latency distribution in seconds,
	// from first transmission at the source host to final delivery.
	Latency *stats.Sample
	// DataLatency restricts the latency distribution to payload packets.
	DataLatency *stats.Sample

	// Enqueued / Marked / EarlyDropped / OverflowDropped count Enqueue
	// verdicts by packet kind across all observed ports.
	verdicts

	// DeliveredPackets counts final deliveries.
	DeliveredPackets uint64

	// FluidPayload accumulates payload bytes carried by the hybrid engine's
	// fluid model (AddFluidPayload). Always zero on the pure packet path.
	FluidPayload units.ByteSize

	// deliveredPayload accumulates payload bytes delivered per destination
	// node (wire view; includes retransmitted duplicates). Node IDs are
	// dense (the fabric hands them out sequentially), so a grow-on-demand
	// slice replaces the map a hash per delivered packet used to cost.
	deliveredPayload []units.ByteSize

	// Per-tier occupancy aggregation: every port registered with
	// SetPortTier gets its own time-weighted tracker, observed at that
	// port's enqueue instants; TierOccupancyAt sums the per-port means in
	// registration order. Summing at read time (rather than funnelling a
	// tier's ports through one shared tracker) keeps a congested port's
	// standing queue visible next to frequently-enqueuing idle siblings,
	// and the fixed order keeps the float sum deterministic. Off by
	// default — the hot path pays only a bool test unless WatchTiers is
	// enabled.
	tierPortOcc map[*netsim.Port]*stats.TimeWeighted
	tierPorts   [TierCount][]*stats.TimeWeighted
	watchTiers  bool

	// latWindows, when non-nil, accumulates per-packet latency into fixed
	// time windows for steady-state percentile series (P50/P99 per window).
	// Off by default — the hot path pays only a nil test.
	latWindows *stats.Windowed

	// replayIdx is ReplayDeliveries' per-view cursor, kept across barriers.
	replayIdx []int
}

// New creates an empty collector. If reservoir is > 0, per-packet latency
// samples are reservoir-sampled to that capacity (means remain exact).
func New(reservoir int, seed uint64) *Collector {
	newSample := func(tag uint64) *stats.Sample {
		if reservoir > 0 {
			return stats.NewReservoir(reservoir, seed^tag)
		}
		return stats.NewSample()
	}
	return &Collector{
		Latency:     newSample(0xa11),
		DataLatency: newSample(0xda7a),
	}
}

// WatchTiers enables per-tier occupancy tracking over the ports registered
// with SetPortTier (small overhead; off by default so the benchmark-gated
// hot path pays only a bool test).
func (c *Collector) WatchTiers() {
	c.watchTiers = true
	if c.tierPortOcc == nil {
		c.tierPortOcc = make(map[*netsim.Port]*stats.TimeWeighted)
	}
}

// WatchLatencyWindows enables time-windowed per-packet latency tracking:
// windows of the given width starting at start (seconds), at most limit
// windows (observations beyond are dropped). Each window's sample store is
// reservoir-bounded to the collector's usual capacity so a long window
// cannot grow without bound. Read back via LatencyWindows.
func (c *Collector) WatchLatencyWindows(start, width float64, limit, reservoir int, seed uint64) {
	if reservoir > 0 {
		c.latWindows = stats.NewWindowedReservoir(start, width, limit, reservoir, seed^0x71a7)
	} else {
		c.latWindows = stats.NewWindowed(start, width, limit)
	}
}

// LatencyWindows returns the windowed latency accumulator (nil unless
// WatchLatencyWindows was enabled).
func (c *Collector) LatencyWindows() *stats.Windowed { return c.latWindows }

// SetPortTier registers a port's fabric tier for per-tier aggregation.
// Re-registering a port is a no-op (a port has one place in the fabric).
func (c *Collector) SetPortTier(p *netsim.Port, t Tier) {
	if c.tierPortOcc == nil {
		c.tierPortOcc = make(map[*netsim.Port]*stats.TimeWeighted)
	}
	if _, ok := c.tierPortOcc[p]; ok {
		return
	}
	w := &stats.TimeWeighted{}
	c.tierPortOcc[p] = w
	c.tierPorts[t] = append(c.tierPorts[t], w)
}

// TierOccupancyAt returns the tier's time-weighted queued packets over
// [start, atSeconds]: the sum of each registered port's time-weighted mean
// queue length, each sampled at that port's own enqueue instants. Zero
// unless WatchTiers was enabled and ports were registered for the tier.
func (c *Collector) TierOccupancyAt(t Tier, atSeconds float64) float64 {
	var sum float64
	for _, w := range c.tierPorts[t] {
		sum += w.MeanAt(atSeconds)
	}
	return sum
}

// deliverAt is the delivery accounting shared by the serial view and the
// sharded replay: the reservoir RNG draw and the float accumulation order
// depend only on the sequence of these calls, so replaying buffered
// deliveries in the serial engine's order reproduces the serial statistics
// bit for bit.
func (c *Collector) deliverAt(now, sentAt units.Time, payload int, dst packet.NodeID) {
	c.DeliveredPackets++
	lat := now.Sub(sentAt).Seconds()
	c.Latency.Add(lat)
	if c.latWindows != nil {
		c.latWindows.Add(now.Seconds(), lat)
	}
	if payload > 0 {
		c.DataLatency.Add(lat)
		node := int(dst)
		if node >= len(c.deliveredPayload) {
			grown := make([]units.ByteSize, node+1)
			copy(grown, c.deliveredPayload)
			c.deliveredPayload = grown
		}
		c.deliveredPayload[node] += units.ByteSize(payload)
	}
}

// AddFluidPayload credits payload bytes carried by the hybrid engine's fluid
// model. Fluid transfers emit no packets, so these bytes are accounted apart
// from packet deliveries: they contribute no latency samples and do not
// enter DeliveredPayload. Called only from control context (workers parked).
func (c *Collector) AddFluidPayload(dst packet.NodeID, payload units.ByteSize) {
	_ = dst
	c.FluidPayload += payload
}

// DeliveredPayload returns payload bytes delivered to one node.
func (c *Collector) DeliveredPayload(node packet.NodeID) units.ByteSize {
	if int(node) >= len(c.deliveredPayload) || node < 0 {
		return 0
	}
	return c.deliveredPayload[node]
}

// TotalDeliveredPayload sums delivered payload across all nodes.
func (c *Collector) TotalDeliveredPayload() units.ByteSize {
	var total units.ByteSize
	for _, b := range c.deliveredPayload {
		total += b
	}
	return total
}

// MeanLatency returns the average end-to-end per-packet latency.
func (c *Collector) MeanLatency() units.Duration {
	return units.Duration(c.Latency.Mean() * float64(units.Second))
}

// P99Latency returns the 99th percentile end-to-end latency.
func (c *Collector) P99Latency() units.Duration {
	return units.Duration(c.Latency.Percentile(99) * float64(units.Second))
}

// Drops returns total early and overflow drops.
func (c *Collector) Drops() (early, overflow uint64) {
	return c.EarlyDropped.Total(), c.OverflowDropped.Total()
}

// AckDropShare returns the fraction of all dropped packets that were pure
// ACKs — the paper's "disproportionate number of ACK drops" diagnostic.
func (c *Collector) AckDropShare() float64 {
	dropped := c.EarlyDropped.Total() + c.OverflowDropped.Total()
	if dropped == 0 {
		return 0
	}
	acks := c.EarlyDropped.Get(packet.KindPureACK) + c.OverflowDropped.Get(packet.KindPureACK)
	return float64(acks) / float64(dropped)
}

// MeanThroughputPerNode returns average received goodput per node over the
// interval [start, end] for the given node count.
func (c *Collector) MeanThroughputPerNode(nodes int, start, end units.Time) units.Bandwidth {
	if nodes <= 0 || end <= start {
		return 0
	}
	total := c.TotalDeliveredPayload()
	sec := end.Sub(start).Seconds()
	return units.Bandwidth(float64(total*8) / sec / float64(nodes))
}
