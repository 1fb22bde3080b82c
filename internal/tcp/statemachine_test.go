package tcp_test

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// buildMixedNet builds a star whose hosts run per-host TCP variants.
func buildMixedNet(t testing.TB, variants []tcp.Variant, mkq topo.QdiscFactory) *testNet {
	t.Helper()
	eng := sim.New()
	cl := topo.Build(eng, topo.Config{
		Nodes:       len(variants),
		LinkRate:    1 * units.Gbps,
		LinkDelay:   5 * units.Microsecond,
		SwitchQueue: mkq,
	})
	stats := &tcp.Stats{}
	tn := &testNet{eng: eng, cluster: cl, stats: stats}
	for i, h := range cl.Hosts {
		tn.stacks = append(tn.stacks, tcp.NewStack(h, tcp.DefaultConfig(variants[i]), stats))
	}
	return tn
}

func TestStateTransitions(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	var server *tcp.Conn
	tn.stacks[1].Listen(80, func(c *tcp.Conn) { server = c })
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	if c.State() != tcp.StateSynSent {
		t.Errorf("after Dial: %v, want syn-sent", c.State())
	}
	c.Send(1 << 16)
	c.Close()
	tn.eng.Run()
	if c.State() != tcp.StateDone {
		t.Errorf("after close handshake: %v, want done", c.State())
	}
	if server == nil || !server.Established() {
		t.Error("server never established")
	}
}

// TestECNNegotiationMatrix checks every client/server variant pairing: ECN
// is used iff both ends negotiate it.
func TestECNNegotiationMatrix(t *testing.T) {
	variants := []tcp.Variant{tcp.Reno, tcp.RenoECN, tcp.DCTCP}
	for _, cv := range variants {
		for _, sv := range variants {
			cv, sv := cv, sv
			t.Run(cv.String()+"->"+sv.String(), func(t *testing.T) {
				tn := buildMixedNet(t, []tcp.Variant{cv, sv}, droptailFactory(1000))
				sawECT := false
				tn.cluster.Net.Subscribe(&verdictRecorder{onEnq: func(p *packet.Packet, v qdisc.Verdict) {
					if p.Payload > 0 && p.ECN.ECTCapable() {
						sawECT = true
					}
				}})
				tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
				c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
				var done bool
				c.OnClosed = func() { done = true }
				c.Send(1 << 16)
				c.Close()
				tn.eng.Run()
				if !done {
					t.Fatal("transfer incomplete across variant pairing")
				}
				want := cv.ECNEnabled() && sv.ECNEnabled()
				if sawECT != want {
					t.Errorf("ECT data = %v, want %v for %v->%v", sawECT, want, cv, sv)
				}
			})
		}
	}
}

// markAlternate marks every second ECT packet CE at enqueue, to exercise
// DCTCP's receiver state machine (immediate ACK on CE-state change).
type markAlternate struct {
	*qdisc.DropTail
	n int
}

func (m *markAlternate) Enqueue(now units.Time, p *packet.Packet) qdisc.Verdict {
	if p.Payload > 0 && p.ECN.ECTCapable() {
		m.n++
		if m.n%2 == 0 {
			p.Mark()
		}
	}
	return m.DropTail.Enqueue(now, p)
}

func TestDCTCPReceiverImmediateAckOnCEChange(t *testing.T) {
	// With CE flipping on alternating packets, the DCTCP receiver's state
	// machine must bypass delayed-ACK coalescing: ACK count approaches one
	// per segment, far above the 1-per-2 delack baseline.
	run := func(alternate bool) (acks, segs uint64) {
		tn := buildNet(t, 2, tcp.DCTCP, func(label string, rate units.Bandwidth) qdisc.Qdisc {
			if alternate {
				return &markAlternate{DropTail: qdisc.NewDropTail(4096)}
			}
			return qdisc.NewDropTail(4096)
		})
		tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
		c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
		c.Send(2 << 20)
		c.Close()
		tn.eng.Run()
		return tn.stats.AcksSent, tn.stats.SegmentsSent
	}
	baseAcks, baseSegs := run(false)
	altAcks, altSegs := run(true)
	baseRatio := float64(baseAcks) / float64(baseSegs)
	altRatio := float64(altAcks) / float64(altSegs)
	if altRatio <= baseRatio*1.3 {
		t.Errorf("CE flapping ack ratio %.2f not well above delack baseline %.2f", altRatio, baseRatio)
	}
}

func TestClassicECNLatchClearsAfterCWR(t *testing.T) {
	// The classic-ECN receiver latches ECE on CE and clears it when CWR
	// arrives: over a long marked transfer both ECE and non-ECE ACKs must
	// appear (a stuck latch would make every ACK carry ECE).
	var ece, plain int
	tn := buildNet(t, 3, tcp.RenoECN, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewSimpleMark(4096, 30)
	})
	tn.cluster.Net.Subscribe(&verdictRecorder{onEnq: func(p *packet.Packet, v qdisc.Verdict) {
		if p.IsPureACK() {
			if p.HasECE() {
				ece++
			} else {
				plain++
			}
		}
	}})
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	for i := 0; i < 2; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, 2, 80))
		c.Send(4 << 20)
		c.Close()
	}
	tn.eng.Run()
	if ece == 0 {
		t.Fatal("no ECE ACKs despite marking")
	}
	if plain == 0 {
		t.Fatal("every ACK carried ECE: CWR never cleared the latch")
	}
}

func TestRandomLossDeliveryProperty(t *testing.T) {
	// Property: under any uniform loss rate up to 20% applied to data
	// packets, the transfer still delivers exactly its bytes.
	f := func(seed uint64, rateBasis uint8) bool {
		lossRate := float64(rateBasis%21) / 100
		rng := seed | 1
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return float64(rng%1000) / 1000
		}
		tn, _ := buildLossy(t, tcp.Reno, func(p *packet.Packet) bool {
			return p.Payload > 0 && next() < lossRate
		})
		var got units.ByteSize
		tn.stacks[1].Listen(80, func(c *tcp.Conn) {
			c.OnDeliver = func(n int) { got += units.ByteSize(n) }
		})
		c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
		const size = 256 << 10
		done := false
		c.OnClosed = func() { done = true }
		c.Send(size)
		c.Close()
		tn.eng.RunUntil(units.Time(120 * units.Second))
		return done && got == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTwoConnectionsShareTSQFairly(t *testing.T) {
	// Two bulk flows from one host to two receivers: both must finish, and
	// neither should starve (completion times within 3x).
	tn := buildNet(t, 3, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	var t1, t2 units.Time
	c1 := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c1.OnClosed = func() { t1 = tn.eng.Now() }
	c1.Send(4 << 20)
	c1.Close()
	c2 := tn.stacks[0].Dial(addrOf(tn, 2, 80))
	c2.OnClosed = func() { t2 = tn.eng.Now() }
	c2.Send(4 << 20)
	c2.Close()
	tn.eng.Run()
	if t1 == 0 || t2 == 0 {
		t.Fatal("a flow starved under TSQ")
	}
	lo, hi := t1, t2
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 3*float64(lo) {
		t.Errorf("flow completion skew: %v vs %v", t1, t2)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	seen := make(map[uint16]bool)
	for i := 0; i < 100; i++ {
		c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
		p := c.LocalAddr().Port
		if seen[p] {
			t.Fatalf("ephemeral port %d reused among live conns", p)
		}
		seen[p] = true
	}
	if tn.stacks[0].ConnCount() != 100 {
		t.Errorf("ConnCount = %d", tn.stacks[0].ConnCount())
	}
}

func TestCloseListenerStopsAccepts(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	accepted := 0
	l := tn.stacks[1].Listen(80, func(c *tcp.Conn) { accepted++ })
	tn.stacks[1].CloseListener(l)
	var failed bool
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.OnError = func(err error) { failed = true }
	tn.eng.Run()
	if accepted != 0 {
		t.Error("closed listener accepted")
	}
	if !failed {
		t.Error("dial against closed listener did not fail")
	}
}

func TestDuplicateListenerPanics(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tn.stacks[1].Listen(80, nil)
}

func TestSendAfterClosePanics(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, nil)
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Send(100)
}

func TestBytesAccountors(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	var server *tcp.Conn
	tn.stacks[1].Listen(80, func(c *tcp.Conn) { server = c })
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	const size = 1 << 20
	c.Send(size)
	c.Close()
	tn.eng.Run()
	if c.BytesQueued() != size {
		t.Errorf("BytesQueued = %d", c.BytesQueued())
	}
	if c.BytesAcked() != size {
		t.Errorf("BytesAcked = %d", c.BytesAcked())
	}
	if server.BytesDelivered() != size {
		t.Errorf("server BytesDelivered = %d", server.BytesDelivered())
	}
}

var _ netsim.Observer = (*verdictRecorder)(nil)
