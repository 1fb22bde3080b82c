package tcp_test

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// filterQdisc wraps a DropTail and force-drops packets matching drop(),
// counting what it killed. It lets tests inject deterministic loss.
type filterQdisc struct {
	*qdisc.DropTail
	drop    func(p *packet.Packet) bool
	dropped int
}

func (f *filterQdisc) Enqueue(now units.Time, p *packet.Packet) qdisc.Verdict {
	if f.drop != nil && f.drop(p) {
		f.dropped++
		return qdisc.DroppedEarly
	}
	return f.DropTail.Enqueue(now, p)
}

// buildLossy builds a 2-host star whose switch egress queues apply the given
// drop predicate.
func buildLossy(t testing.TB, variant tcp.Variant, drop func(*packet.Packet) bool) (*testNet, *filterQdisc) {
	t.Helper()
	var filters []*filterQdisc
	tn := buildNet(t, 2, variant, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		f := &filterQdisc{DropTail: qdisc.NewDropTail(4096), drop: drop}
		filters = append(filters, f)
		return f
	})
	return tn, filters[0]
}

func TestSingleLossRecoversByFastRetransmit(t *testing.T) {
	// Drop exactly one data packet mid-flow: SACK recovery must fix it
	// without any RTO.
	dropped := false
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		if !dropped && p.Payload > 0 && p.Seq > 100000 {
			dropped = true
			return true
		}
		return false
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done bool
	c.OnClosed = func() { done = true }
	c.Send(1 << 20)
	c.Close()
	tn.eng.Run()

	if !done {
		t.Fatal("transfer incomplete")
	}
	if !dropped {
		t.Fatal("test never dropped a packet")
	}
	if tn.stats.RTOEvents != 0 {
		t.Errorf("RTO fired for a single recoverable loss (%d events)", tn.stats.RTOEvents)
	}
	if tn.stats.FastRetransmits == 0 {
		t.Error("no fast retransmit recorded")
	}
}

func TestBurstLossRecoversWithSACK(t *testing.T) {
	// Drop 20 consecutive data packets: SACK hole-filling must recover all
	// of them in (few) round trips without collapsing to one-per-RTT.
	var killed int
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		if p.Payload > 0 && p.Seq > 200000 && killed < 20 {
			killed++
			return true
		}
		return false
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done units.Time
	c.OnClosed = func() { done = tn.eng.Now() }
	c.Send(4 << 20)
	c.Close()
	tn.eng.Run()

	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	if killed != 20 {
		t.Fatalf("dropped %d, want 20", killed)
	}
	// 4 MiB at 1 Gbps is ~34 ms; recovery should not add an RTO (200 ms).
	if done > units.Time(150*units.Millisecond) {
		t.Errorf("completion %v suggests RTO-bound recovery", done)
	}
}

func TestTotalAckLossCausesRTO(t *testing.T) {
	// The paper's catastrophic scenario, isolated: every pure ACK on the
	// reverse path vanishes for a window. The sender must stall and fire
	// the retransmission timer.
	blackout := false
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		return blackout && p.IsPureACK()
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done bool
	c.OnClosed = func() { done = true }
	c.Send(8 << 20)
	c.Close()
	// Let it start cleanly, then black out ACKs for 30 ms.
	tn.eng.Schedule(units.Time(5*units.Millisecond), func() { blackout = true })
	tn.eng.Schedule(units.Time(35*units.Millisecond), func() { blackout = false })
	tn.eng.Run()

	if !done {
		t.Fatal("transfer incomplete")
	}
	if tn.stats.RTOEvents == 0 {
		t.Error("whole-window ACK loss did not trigger an RTO — the paper's mechanism is missing")
	}
}

func TestAckLossWithoutBlackoutIsHarmless(t *testing.T) {
	// Dropping every second ACK must NOT stall the flow: cumulative ACKs
	// absorb sparse ACK loss. This isolates why only near-total ACK
	// starvation (the AQM forced-drop region) is catastrophic.
	var n int
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		if p.IsPureACK() {
			n++
			return n%2 == 0
		}
		return false
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done units.Time
	c.OnClosed = func() { done = tn.eng.Now() }
	c.Send(4 << 20)
	c.Close()
	tn.eng.Run()

	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	// Mid-stream ACK loss is absorbed by cumulative ACKs; only the very
	// last ACK (for the FIN, with no later ACK to cover it) can force a
	// single tail RTO. More than one RTO would mean data-path stalls.
	if tn.stats.RTOEvents > 1 {
		t.Errorf("sparse ACK loss caused %d RTOs; cumulative ACKs should absorb it", tn.stats.RTOEvents)
	}
	if done > units.Time(300*units.Millisecond) {
		t.Errorf("completion %v too slow under 50%% ACK loss", done)
	}
}

func TestSynLossDelaysConnectionBySynRTO(t *testing.T) {
	// Drop the first SYN: connection establishment must succeed after the
	// 1-second SYN retransmission timeout — the paper's point about AQMs
	// that early-drop SYNs.
	first := true
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		if p.IsSYN() && first {
			first = false
			return true
		}
		return false
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	var connectedAt units.Time
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.OnConnected = func() { connectedAt = tn.eng.Now() }
	tn.eng.Run()

	if connectedAt == 0 {
		t.Fatal("never connected")
	}
	if connectedAt < units.Time(1*units.Second) {
		t.Errorf("connected at %v, want >= 1s (SYN RTO)", connectedAt)
	}
	if tn.stats.SynRetries == 0 {
		t.Error("no SYN retry recorded")
	}
}

func TestFinLossRecovered(t *testing.T) {
	// Drop the first FIN: the sender must retransmit it and still complete.
	first := true
	tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
		if p.Flags.Has(packet.FlagFIN) && first {
			first = false
			return true
		}
		return false
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done bool
	c.OnClosed = func() { done = true }
	c.Send(64 << 10)
	c.Close()
	tn.eng.Run()
	if !done {
		t.Fatal("FIN loss never recovered")
	}
}

func TestNonSACKFallbackStillCompletes(t *testing.T) {
	// Legacy NewReno (SACK off) must still recover a burst loss, slower.
	cfg := tcp.DefaultConfig(tcp.Reno)
	cfg.SACK = false
	var killed int
	var filters []*filterQdisc
	tn := buildNetWithConfig(t, 2, cfg, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		f := &filterQdisc{DropTail: qdisc.NewDropTail(4096), drop: func(p *packet.Packet) bool {
			if p.Payload > 0 && p.Seq > 100000 && killed < 5 {
				killed++
				return true
			}
			return false
		}}
		filters = append(filters, f)
		return f
	})
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done bool
	c.OnClosed = func() { done = true }
	c.Send(1 << 20)
	c.Close()
	tn.eng.RunUntil(units.Time(30 * units.Second))
	if !done {
		t.Fatal("non-SACK transfer incomplete")
	}
	if tn.stats.Retransmits() == 0 {
		t.Error("no retransmissions recorded")
	}
}

func TestTSQBoundsHostQueue(t *testing.T) {
	// With TSQ enabled (default), bulk senders on one host must never hold
	// more than the limit (plus one segment) in their NIC queue, whether
	// one sender fills it or 16 share it (most of them parked at a time),
	// and every sender must finish.
	for _, senders := range []int{1, 16} {
		tn := buildNet(t, 1+senders, tcp.Reno, droptailFactory(4096))
		done := 0
		for i := 1; i <= senders; i++ {
			tn.stacks[i].Listen(80, func(c *tcp.Conn) {})
			c := tn.stacks[0].Dial(addrOf(tn, i, 80))
			c.OnClosed = func() { done++ }
			c.Send(8 << 20 / senders)
			c.Close()
		}
		limit := tn.stacks[0].Config().TSQLimit
		hostQ := tn.cluster.Hosts[0].Uplink().Queue()
		maxSeen := units.ByteSize(0)
		for tn.eng.Step() {
			if b := hostQ.BytesQueued(); b > maxSeen {
				maxSeen = b
			}
		}
		if maxSeen > limit+1500 {
			t.Errorf("%d senders: host queue reached %v, limit %v", senders, maxSeen, limit)
		}
		if maxSeen == 0 {
			t.Errorf("%d senders: host queue never used", senders)
		}
		if done != senders {
			t.Errorf("%d of %d senders finished", done, senders)
		}
	}
}

func TestDCTCPAlphaTracksMarkingExtremes(t *testing.T) {
	// Converging senders through an always-marking queue -> alpha stays
	// high. A loss-free unmarked path -> alpha decays from its initial 1
	// toward 0. (Marking requires convergence: a lone flow through equal
	// rate links never builds a switch queue.)
	markAll := func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewSimpleMark(4096, 1) // marks at queue >= 1
	}
	tn := buildNet(t, 3, tcp.DCTCP, markAll)
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 2, 80))
	c.Send(4 << 20)
	c.Close()
	cb := tn.stacks[1].Dial(addrOf(tn, 2, 80))
	cb.Send(4 << 20)
	cb.Close()
	tn.eng.Run()
	alphaMarked := c.Alpha()
	if alphaMarked < 0.3 {
		t.Errorf("alpha = %.3f under near-universal marking, want high", alphaMarked)
	}

	tn2 := buildNet(t, 2, tcp.DCTCP, droptailFactory(4096))
	tn2.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c2 := tn2.stacks[0].Dial(addrOf(tn2, 1, 80))
	c2.Send(4 << 20)
	c2.Close()
	tn2.eng.Run()
	alphaClean := c2.Alpha()
	if alphaClean >= 1 {
		t.Errorf("alpha = %.3f with zero marking; must decay from 1", alphaClean)
	}
	if alphaClean >= alphaMarked {
		t.Errorf("clean-path alpha %.3f >= marked-path alpha %.3f", alphaClean, alphaMarked)
	}
}

func TestDelayedAckRatio(t *testing.T) {
	// With delayed ACKs every 2 segments, pure ACK count should be well
	// under the data segment count.
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(4096))
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.Send(4 << 20)
	c.Close()
	tn.eng.Run()
	segs := tn.stats.SegmentsSent
	acks := tn.stats.AcksSent
	if acks*3 > segs*2 {
		t.Errorf("acks=%d vs segments=%d: delayed ACK not coalescing", acks, segs)
	}
	if acks < segs/4 {
		t.Errorf("acks=%d vs segments=%d: too few ACKs for 2:1 delack", acks, segs)
	}
}

func TestEceOncePerWindow(t *testing.T) {
	// Classic ECN must not halve more than once per RTT despite a stream
	// of marked packets. With cwnd halving per window and persistent
	// marking, cwnd cuts should number far fewer than marks.
	tn := buildNet(t, 3, tcp.RenoECN, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewSimpleMark(4096, 5)
	})
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	for i := 0; i < 2; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, 2, 80))
		c.Send(4 << 20)
		c.Close()
	}
	tn.eng.Run()
	if tn.stats.CwndCuts == 0 {
		t.Fatal("no ECN reactions at all")
	}
	marks := tn.stats.EceAcksSent
	if tn.stats.CwndCuts >= marks {
		t.Errorf("cuts=%d >= ECE acks=%d: once-per-window gating broken", tn.stats.CwndCuts, marks)
	}
}

// buildNetWithConfig is buildNet with a custom TCP config.
func buildNetWithConfig(t testing.TB, n int, cfg tcp.Config, mkq topo.QdiscFactory) *testNet {
	t.Helper()
	tn := buildNet(t, n, cfg.Variant, mkq)
	// Rebuild stacks with the custom config.
	tn.stacks = tn.stacks[:0]
	stats := tn.stats
	for _, h := range tn.cluster.Hosts {
		tn.stacks = append(tn.stacks, tcp.NewStack(h, cfg, stats))
	}
	return tn
}
