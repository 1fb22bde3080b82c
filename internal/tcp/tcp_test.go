package tcp_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// testNet is a small star cluster with one stack per host.
type testNet struct {
	eng     *sim.Engine
	cluster *topo.Cluster
	stacks  []*tcp.Stack
	stats   *tcp.Stats
}

// buildNet creates an n-host star with the given qdisc on switch egress
// ports and one TCP stack per host.
func buildNet(t testing.TB, n int, variant tcp.Variant, mkq topo.QdiscFactory) *testNet {
	t.Helper()
	eng := sim.New()
	cl := topo.Build(eng, topo.Config{
		Nodes:       n,
		LinkRate:    1 * units.Gbps,
		LinkDelay:   5 * units.Microsecond,
		SwitchQueue: mkq,
	})
	stats := &tcp.Stats{}
	tn := &testNet{eng: eng, cluster: cl, stats: stats}
	cfg := tcp.DefaultConfig(variant)
	for _, h := range cl.Hosts {
		tn.stacks = append(tn.stacks, tcp.NewStack(h, cfg, stats))
	}
	return tn
}

func droptailFactory(capacity int) topo.QdiscFactory {
	return func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewDropTail(capacity)
	}
}

func addrOf(tn *testNet, host int, port uint16) packet.Addr {
	return packet.Addr{Node: tn.cluster.Hosts[host].ID(), Port: port}
}

func TestHandshakeEstablishes(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(100))
	var accepted *tcp.Conn
	tn.stacks[1].Listen(80, func(c *tcp.Conn) { accepted = c })

	var connected bool
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.OnConnected = func() { connected = true }

	tn.eng.Run()

	if !connected {
		t.Fatal("client never connected")
	}
	if accepted == nil {
		t.Fatal("listener never accepted")
	}
	if !c.Established() {
		t.Errorf("client state = %v, want established", c.State())
	}
	if !accepted.Established() {
		t.Errorf("server state = %v, want established", accepted.State())
	}
	if tn.stats.ConnsEstablished != 2 {
		t.Errorf("ConnsEstablished = %d, want 2", tn.stats.ConnsEstablished)
	}
}

func TestBulkTransferDeliversAllBytes(t *testing.T) {
	const size = 1 << 20 // 1 MiB
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	var got units.ByteSize
	var eof bool
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {
		c.OnDeliver = func(n int) { got += units.ByteSize(n) }
		c.OnEOF = func() { eof = true }
	})

	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var closed bool
	c.OnClosed = func() { closed = true }
	c.Send(size)
	c.Close()

	tn.eng.Run()

	if got != size {
		t.Errorf("delivered %d bytes, want %d", got, size)
	}
	if !eof {
		t.Error("receiver never saw EOF")
	}
	if !closed {
		t.Error("sender FIN never acknowledged")
	}
	if tn.stats.Retransmits() != 0 {
		t.Errorf("unexpected retransmits on uncongested path: %d", tn.stats.Retransmits())
	}
}

func TestBulkTransferThroughputNearLineRate(t *testing.T) {
	const size = 8 << 20
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	var done units.Time
	c.OnClosed = func() { done = tn.eng.Now() }
	c.Send(size)
	c.Close()
	tn.eng.Run()

	if done == 0 {
		t.Fatal("transfer never completed")
	}
	gbps := float64(size*8) / done.Seconds() / 1e9
	if gbps < 0.85 {
		t.Errorf("goodput %.3f Gbps, want >= 0.85 of the 1 Gbps link", gbps)
	}
	if gbps > 1.0 {
		t.Errorf("goodput %.3f Gbps exceeds link rate: accounting bug", gbps)
	}
}

func TestRetransmissionRecoversFromOverflowLoss(t *testing.T) {
	// Tiny switch buffer forces drops; the transfer must still complete.
	const size = 4 << 20
	tn := buildNet(t, 4, tcp.Reno, droptailFactory(16))
	var got units.ByteSize
	tn.stacks[3].Listen(80, func(c *tcp.Conn) {
		c.OnDeliver = func(n int) { got += units.ByteSize(n) }
	})
	// Three concurrent senders into one receiver: incast congestion.
	doneCount := 0
	for i := 0; i < 3; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, 3, 80))
		c.OnClosed = func() { doneCount++ }
		c.Send(size / 2)
		c.Close()
	}
	tn.eng.RunUntil(units.Time(60 * units.Second))

	want := units.ByteSize(3 * (size / 2))
	if got != want {
		t.Fatalf("delivered %d bytes, want %d (doneCount=%d, rtx=%d)",
			got, want, doneCount, tn.stats.Retransmits())
	}
	if doneCount != 3 {
		t.Errorf("%d of 3 flows completed", doneCount)
	}
	if tn.stats.Retransmits() == 0 {
		t.Error("expected retransmissions under incast with 16-packet buffer")
	}
}

func TestECNNegotiation(t *testing.T) {
	tests := []struct {
		name    string
		variant tcp.Variant
		wantECT bool
	}{
		{"reno does not negotiate", tcp.Reno, false},
		{"tcp-ecn negotiates", tcp.RenoECN, true},
		{"dctcp negotiates", tcp.DCTCP, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tn := buildNet(t, 2, tt.variant, droptailFactory(1000))
			sawECT := false
			obs := &verdictRecorder{onEnq: func(p *packet.Packet, v qdisc.Verdict) {
				if p.Payload > 0 && p.ECN.ECTCapable() {
					sawECT = true
				}
				if p.IsPureACK() && p.ECN.ECTCapable() {
					t.Errorf("pure ACK sent as ECT: %v", p)
				}
				if p.IsSYN() && p.ECN.ECTCapable() {
					t.Errorf("SYN sent as ECT: %v", p)
				}
			}}
			tn.cluster.Net.Subscribe(obs)
			tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
			c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
			c.Send(1 << 16)
			c.Close()
			tn.eng.Run()
			if sawECT != tt.wantECT {
				t.Errorf("saw ECT data packets = %v, want %v", sawECT, tt.wantECT)
			}
		})
	}
}

// verdictRecorder is a minimal netsim.Observer for tests.
type verdictRecorder struct {
	onEnq     func(*packet.Packet, qdisc.Verdict)
	onDeliver func(*packet.Packet)
}

func (r *verdictRecorder) PacketEnqueued(_ units.Time, _ *netsim.Port, p *packet.Packet, v qdisc.Verdict) {
	if r.onEnq != nil {
		r.onEnq(p, v)
	}
}
func (r *verdictRecorder) PacketDelivered(_ units.Time, p *packet.Packet) {
	if r.onDeliver != nil {
		r.onDeliver(p)
	}
}

func TestECNSenderReactsToMarks(t *testing.T) {
	// Two senders converge on one receiver (a queue only builds at a switch
	// egress when flows converge, as in the shuffle); SimpleMark marks
	// aggressively; the ECN senders must cut their windows and the
	// transfers must finish without any packet loss.
	const size = 4 << 20
	tn := buildNet(t, 3, tcp.RenoECN, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewSimpleMark(1000, 20)
	})
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	done := 0
	for i := 0; i < 2; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, 2, 80))
		c.OnClosed = func() { done++ }
		c.Send(size)
		c.Close()
	}
	tn.eng.Run()

	if done != 2 {
		t.Fatalf("%d of 2 transfers completed", done)
	}
	if tn.stats.Retransmits() != 0 {
		t.Errorf("retransmits = %d, want 0 (marking must avoid loss)", tn.stats.Retransmits())
	}
	if tn.stats.CwndCuts == 0 {
		t.Error("senders never reacted to ECN marks")
	}
	if tn.stats.EceAcksSent == 0 {
		t.Error("receiver never echoed congestion")
	}
}

func TestDCTCPAlphaConvergesUnderPersistentMarking(t *testing.T) {
	const size = 8 << 20
	tn := buildNet(t, 3, tcp.DCTCP, func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewSimpleMark(1000, 30)
	})
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	c0 := tn.stacks[0].Dial(addrOf(tn, 2, 80))
	c0.Send(size)
	c0.Close()
	c1 := tn.stacks[1].Dial(addrOf(tn, 2, 80))
	c1.Send(size)
	c1.Close()
	tn.eng.Run()

	// Under steady marking at a fixed threshold, DCTCP's alpha must stay
	// strictly between 0 and 1 and the flows must finish without loss.
	if a := c0.Alpha(); a <= 0 || a >= 1 {
		t.Errorf("alpha = %v, want in (0,1)", a)
	}
	if tn.stats.Retransmits() != 0 {
		t.Errorf("retransmits = %d, want 0", tn.stats.Retransmits())
	}
}

func TestDCTCPKeepsHigherUtilizationThanECNAtTinyThreshold(t *testing.T) {
	// With an aggressive marking threshold, classic ECN halves repeatedly
	// while DCTCP's proportional cut should sustain equal-or-better
	// completion time. This mirrors the paper's observation that DCTCP
	// tolerates aggressive settings.
	run := func(v tcp.Variant) units.Time {
		tn := buildNet(t, 3, v, func(label string, rate units.Bandwidth) qdisc.Qdisc {
			return qdisc.NewSimpleMark(1000, 10)
		})
		tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
		done := 0
		for i := 0; i < 2; i++ {
			c := tn.stacks[i].Dial(addrOf(tn, 2, 80))
			c.OnClosed = func() { done++ }
			c.Send(16 << 20)
			c.Close()
		}
		tn.eng.Run()
		if done != 2 {
			t.Fatalf("%v: %d of 2 transfers completed", v, done)
		}
		return tn.eng.Now()
	}
	ecn := run(tcp.RenoECN)
	dctcp := run(tcp.DCTCP)
	if float64(dctcp) > float64(ecn)*1.05 {
		t.Errorf("dctcp=%v slower than tcp-ecn=%v at aggressive threshold", dctcp, ecn)
	}
}

func TestSynRetryAfterLoss(t *testing.T) {
	// A 1-packet buffer under a standing load drops the first SYN with high
	// probability; verify the dialer retries and eventually connects.
	tn := buildNet(t, 3, tcp.Reno, droptailFactory(4))
	tn.stacks[2].Listen(80, func(c *tcp.Conn) {})
	// Standing bulk load to keep the egress queue full.
	bg := tn.stacks[0].Dial(addrOf(tn, 2, 80))
	bg.Send(64 << 20)

	var connected bool
	tn.eng.Schedule(units.Time(10*units.Millisecond), func() {
		c := tn.stacks[1].Dial(addrOf(tn, 2, 80))
		c.OnConnected = func() { connected = true }
	})
	tn.eng.RunUntil(units.Time(30 * units.Second))

	if !connected {
		t.Fatalf("dialer never connected (synRetries=%d)", tn.stats.SynRetries)
	}
}

func TestConnFailsAfterMaxSynRetries(t *testing.T) {
	// Dial a host that exists but has no listener: SYNs are silently
	// ignored, so the dialer must give up with an error.
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(100))
	var gotErr error
	c := tn.stacks[0].Dial(addrOf(tn, 1, 9999))
	c.OnError = func(err error) { gotErr = err }
	tn.eng.Run()
	if gotErr == nil {
		t.Fatal("expected connection failure")
	}
	if c.State() != tcp.StateClosed {
		t.Errorf("state = %v, want closed", c.State())
	}
	if tn.stats.ConnsFailed != 1 {
		t.Errorf("ConnsFailed = %d, want 1", tn.stats.ConnsFailed)
	}
}

func TestRTTEstimateReasonable(t *testing.T) {
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.Send(1 << 20)
	c.Close()
	tn.eng.Run()

	// Two links of 5 µs each way plus serialization: SRTT should be tens of
	// microseconds to a few ms (queueing), never zero and never huge.
	srtt := c.SRTT()
	if srtt <= 0 {
		t.Fatal("no RTT samples folded in")
	}
	if srtt > 50*units.Millisecond {
		t.Errorf("SRTT %v implausibly large for an idle 1 Gbps star", srtt)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	// Both endpoints send; both must deliver fully (exercises piggyback
	// ACK processing on data segments).
	const size = 1 << 20
	tn := buildNet(t, 2, tcp.Reno, droptailFactory(1000))
	var serverGot, clientGot units.ByteSize
	tn.stacks[1].Listen(80, func(c *tcp.Conn) {
		c.OnDeliver = func(n int) { serverGot += units.ByteSize(n) }
		c.Send(size) // server pushes too
	})
	c := tn.stacks[0].Dial(addrOf(tn, 1, 80))
	c.OnDeliver = func(n int) { clientGot += units.ByteSize(n) }
	c.Send(size)
	tn.eng.RunUntil(units.Time(10 * units.Second))

	if serverGot != size {
		t.Errorf("server delivered %d, want %d", serverGot, size)
	}
	if clientGot != size {
		t.Errorf("client delivered %d, want %d", clientGot, size)
	}
}

func TestManyParallelFlowsAllComplete(t *testing.T) {
	// All-to-one with moderate buffers: every flow must finish and deliver
	// exactly its bytes (conservation).
	const flows = 8
	const size = 256 << 10
	tn := buildNet(t, flows+1, tcp.Reno, droptailFactory(64))
	recv := make(map[int]units.ByteSize)
	tn.stacks[flows].Listen(80, func(c *tcp.Conn) {
		id := int(c.RemoteAddr().Node)
		c.OnDeliver = func(n int) { recv[id] += units.ByteSize(n) }
	})
	done := 0
	for i := 0; i < flows; i++ {
		c := tn.stacks[i].Dial(addrOf(tn, flows, 80))
		c.OnClosed = func() { done++ }
		c.Send(size)
		c.Close()
	}
	tn.eng.RunUntil(units.Time(60 * units.Second))

	if done != flows {
		t.Fatalf("%d of %d flows completed", done, flows)
	}
	for i := 0; i < flows; i++ {
		id := int(tn.cluster.Hosts[i].ID())
		if recv[id] != size {
			t.Errorf("flow from host %d delivered %d, want %d", i, recv[id], size)
		}
	}
}
