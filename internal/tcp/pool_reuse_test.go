package tcp_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/tcp"
	"repro/internal/units"
)

// aliasDetector is a netsim.Observer that proves released packets are never
// aliased: it tracks every in-flight packet by pointer and fails if a
// pointer's identity (packet ID) changes while the packet is still between
// its first enqueue and its drop or final delivery. If the fabric released a
// packet early and the pool handed it to a second sender, the recycled
// pointer would reappear under a new ID while still tracked — exactly what
// this catches.
type aliasDetector struct {
	t        *testing.T
	inflight map[*packet.Packet]uint64
	peak     int
}

func newAliasDetector(t *testing.T) *aliasDetector {
	return &aliasDetector{t: t, inflight: make(map[*packet.Packet]uint64)}
}

func (d *aliasDetector) PacketEnqueued(_ units.Time, _ *netsim.Port, p *packet.Packet, v qdisc.Verdict) {
	if id, ok := d.inflight[p]; ok {
		// Re-enqueue at a later hop: must still be the same packet.
		if id != p.ID {
			d.t.Fatalf("in-flight packet aliased: pointer carried #%d, now #%d", id, p.ID)
		}
	} else {
		d.inflight[p] = p.ID
		if len(d.inflight) > d.peak {
			d.peak = len(d.inflight)
		}
	}
	if v.Dropped() {
		delete(d.inflight, p) // fabric releases it after this callback
	}
}

func (d *aliasDetector) PacketDelivered(_ units.Time, p *packet.Packet) {
	id, ok := d.inflight[p]
	if !ok {
		d.t.Fatalf("delivery of untracked packet #%d", p.ID)
	}
	if id != p.ID {
		d.t.Fatalf("delivered packet aliased: pointer carried #%d, delivered as #%d", id, p.ID)
	}
	delete(d.inflight, p)
}

// TestPacketPoolNoAliasing runs many concurrent transfers through a
// drop-heavy RED queue — exercising the enqueue-drop, head-drop-free and
// delivery release sites — and asserts no released packet is ever reused
// while still in flight. Run under -race in CI, it also proves the pool
// stays single-threaded.
func TestPacketPoolNoAliasing(t *testing.T) {
	tn := buildNet(t, 6, tcp.RenoECN, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		cfg := qdisc.DefaultREDConfig(30, rate)
		cfg.ECN = true
		cfg.Seed = 7
		return qdisc.NewRED(cfg)
	})
	det := newAliasDetector(t)
	tn.cluster.Net.Subscribe(det)

	// Incast onto host 0: five synchronized senders collapse onto one
	// egress port, forcing both AQM early drops (non-ECT ACKs/SYNs) and
	// tail drops alongside normal deliveries.
	const flow = 256 << 10
	var delivered units.ByteSize
	tn.stacks[0].Listen(80, func(c *tcp.Conn) {
		c.OnDeliver = func(n int) { delivered += units.ByteSize(n) }
	})
	for i := 1; i < 6; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, 0, 80))
		c.Send(flow)
		c.Close()
	}
	tn.eng.Run()

	if want := units.ByteSize(5 * flow); delivered != want {
		t.Fatalf("delivered %d bytes, want %d", delivered, want)
	}
	if tn.stats.Retransmits() == 0 {
		t.Fatal("no retransmits: the queue never dropped, so drop-site release was not exercised")
	}
	if len(det.inflight) != 0 {
		t.Errorf("%d packets still tracked after the run drained", len(det.inflight))
	}
	news, reuses := tn.cluster.Net.PoolStats()
	if reuses == 0 {
		t.Error("pool recorded no reuses; the free list is not engaged")
	}
	if news > uint64(det.peak)+16 {
		t.Errorf("pool minted %d packets for a peak of %d in flight: release sites are leaking",
			news, det.peak)
	}
}
