package metrics

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

func data(dst packet.NodeID, payload int) *packet.Packet {
	return &packet.Packet{Flags: packet.FlagACK, Payload: payload, ECN: packet.ECT0,
		Dst: packet.Addr{Node: dst, Port: 1}}
}

func ack() *packet.Packet {
	return &packet.Packet{Flags: packet.FlagACK, Wire: 40}
}

func syn() *packet.Packet {
	return &packet.Packet{Flags: packet.FlagSYN, Wire: 40}
}

// port builds a throwaway port for observer calls.
func port(t *testing.T) *netsim.Port {
	t.Helper()
	eng := sim.New()
	n := netsim.New(eng)
	a := n.NewHost("a")
	b := n.NewHost("b")
	return n.NewPort(a, b, netsim.LinkParams{Rate: units.Gbps, Delay: 0}, qdisc.NewDropTail(8), "a->b")
}

func TestVerdictCounting(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	p := port(t)
	v.PacketEnqueued(0, p, data(1, 100), qdisc.Enqueued)
	v.PacketEnqueued(0, p, data(1, 100), qdisc.EnqueuedMarked)
	v.PacketEnqueued(0, p, ack(), qdisc.DroppedEarly)
	v.PacketEnqueued(0, p, ack(), qdisc.DroppedEarly)
	v.PacketEnqueued(0, p, syn(), qdisc.DroppedEarly)
	v.PacketEnqueued(0, p, data(1, 100), qdisc.DroppedOverflow)

	if got := c.Enqueued.Get(packet.KindData); got != 2 {
		t.Errorf("enqueued data = %d, want 2", got)
	}
	if got := c.Marked.Get(packet.KindData); got != 1 {
		t.Errorf("marked = %d, want 1", got)
	}
	if got := c.EarlyDropped.Get(packet.KindPureACK); got != 2 {
		t.Errorf("early-dropped ACKs = %d, want 2", got)
	}
	if got := c.EarlyDropped.Get(packet.KindSYN); got != 1 {
		t.Errorf("early-dropped SYNs = %d, want 1", got)
	}
	early, ovf := c.Drops()
	if early != 3 || ovf != 1 {
		t.Errorf("Drops = %d/%d, want 3/1", early, ovf)
	}
}

func TestAckDropShare(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	p := port(t)
	if c.AckDropShare() != 0 {
		t.Error("share non-zero with no drops")
	}
	v.PacketEnqueued(0, p, ack(), qdisc.DroppedEarly)
	v.PacketEnqueued(0, p, ack(), qdisc.DroppedEarly)
	v.PacketEnqueued(0, p, ack(), qdisc.DroppedOverflow)
	v.PacketEnqueued(0, p, data(1, 100), qdisc.DroppedOverflow)
	if got := c.AckDropShare(); got != 0.75 {
		t.Errorf("AckDropShare = %g, want 0.75", got)
	}
}

func TestLatencyAccounting(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	d := data(1, 100)
	d.SentAt = units.Time(100 * units.Microsecond)
	v.PacketDelivered(units.Time(300*units.Microsecond), d)

	a := ack()
	a.SentAt = units.Time(100 * units.Microsecond)
	v.PacketDelivered(units.Time(200*units.Microsecond), a)

	if c.DeliveredPackets != 2 {
		t.Errorf("delivered = %d", c.DeliveredPackets)
	}
	// Mean of 200µs and 100µs = 150µs.
	if got := c.MeanLatency(); got != 150*units.Microsecond {
		t.Errorf("MeanLatency = %v, want 150µs", got)
	}
	// Data-only latency excludes the ACK.
	if got := c.DataLatency.Mean(); got != 200e-6 {
		t.Errorf("data latency mean = %g, want 200e-6", got)
	}
}

func TestDeliveredPayloadPerNode(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	v.PacketDelivered(0, data(1, 1000))
	v.PacketDelivered(0, data(1, 500))
	v.PacketDelivered(0, data(2, 100))
	v.PacketDelivered(0, ack()) // no payload
	if got := c.DeliveredPayload(1); got != 1500 {
		t.Errorf("node 1 payload = %d", got)
	}
	if got := c.DeliveredPayload(2); got != 100 {
		t.Errorf("node 2 payload = %d", got)
	}
	if got := c.DeliveredPayload(99); got != 0 {
		t.Errorf("untouched node payload = %d, want 0", got)
	}
	if got := c.TotalDeliveredPayload(); got != 1600 {
		t.Errorf("total payload = %d, want 1600", got)
	}
}

func TestMeanThroughputPerNode(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	v.PacketDelivered(0, data(1, 125000)) // 1 Mbit
	v.PacketDelivered(0, data(2, 125000)) // 1 Mbit
	// 2 Mbit over 1 second over 2 nodes = 1 Mbps per node.
	got := c.MeanThroughputPerNode(2, 0, units.Time(units.Second))
	if got != 1*units.Mbps {
		t.Errorf("throughput = %v, want 1Mbps", got)
	}
	if c.MeanThroughputPerNode(0, 0, 1) != 0 {
		t.Error("zero nodes should yield 0")
	}
	if c.MeanThroughputPerNode(2, 5, 5) != 0 {
		t.Error("empty window should yield 0")
	}
}

func TestP99Latency(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	for i := 1; i <= 100; i++ {
		d := data(1, 10)
		d.SentAt = 0
		v.PacketDelivered(units.Time(i)*units.Time(units.Microsecond), d)
	}
	p99 := c.P99Latency()
	if p99 < 98*units.Microsecond || p99 > 100*units.Microsecond {
		t.Errorf("P99 = %v, want ~99µs", p99)
	}
}

func TestReservoirModeBoundsSamples(t *testing.T) {
	c := New(64, 9)
	v := c.View()
	for i := 0; i < 10000; i++ {
		d := data(1, 10)
		d.SentAt = 0
		v.PacketDelivered(units.Time(i+1), d)
	}
	if c.Latency.N() != 10000 {
		t.Errorf("N = %d, want 10000", c.Latency.N())
	}
}

func TestKindCountsTotal(t *testing.T) {
	var kc KindCounts
	kc.Add(packet.KindData)
	kc.Add(packet.KindData)
	kc.Add(packet.KindPureACK)
	if kc.Total() != 3 {
		t.Errorf("Total = %d", kc.Total())
	}
	if kc.Get(packet.KindData) != 2 {
		t.Errorf("Get(data) = %d", kc.Get(packet.KindData))
	}
}

// TestTierOccupancySumsPorts pins the per-tier aggregation semantics: each
// registered port gets its own time-weighted tracker and the tier value is
// the sum of per-port means — a congested port's standing queue must not be
// erased by an idle sibling that enqueues (and observes ~0) frequently.
func TestTierOccupancySumsPorts(t *testing.T) {
	c := New(0, 1)
	v := c.View()
	sick, idle := port(t), port(t)
	c.SetPortTier(sick, TierCoreUp)
	c.SetPortTier(idle, TierCoreUp)
	c.WatchTiers()

	// The sick port holds 4 queued packets from t=0 on.
	for i := 0; i < 4; i++ {
		sick.Queue().Enqueue(0, data(1, 100))
	}
	v.PacketEnqueued(0, sick, data(1, 100), qdisc.Enqueued)

	// The idle port enqueues often, each time with an empty queue behind it.
	for i := 1; i <= 9; i++ {
		v.PacketEnqueued(units.Time(i)*units.Time(units.Second), idle, data(1, 100), qdisc.Enqueued)
	}

	got := c.TierOccupancyAt(TierCoreUp, 10)
	if got != 4 {
		t.Errorf("TierOccupancyAt = %g, want 4 (sick port's standing queue + idle port's 0)", got)
	}
	if c.TierOccupancyAt(TierEdge, 10) != 0 {
		t.Errorf("unregistered tier reported %g", c.TierOccupancyAt(TierEdge, 10))
	}

	// Re-registering a port must not double-count it.
	c.SetPortTier(sick, TierCoreUp)
	if got := c.TierOccupancyAt(TierCoreUp, 10); got != 4 {
		t.Errorf("after re-registration TierOccupancyAt = %g, want 4", got)
	}
}
