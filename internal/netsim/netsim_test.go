package netsim

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

// sinkProto records delivered packets.
type sinkProto struct{ got []*packet.Packet }

func (s *sinkProto) Deliver(p *packet.Packet) { s.got = append(s.got, p) }

// recorder counts observer callbacks.
type recorder struct {
	enq     []qdisc.Verdict
	deliver []*packet.Packet
	times   []units.Time
}

func (r *recorder) PacketEnqueued(_ units.Time, _ *Port, _ *packet.Packet, v qdisc.Verdict) {
	r.enq = append(r.enq, v)
}
func (r *recorder) PacketDelivered(now units.Time, p *packet.Packet) {
	r.deliver = append(r.deliver, p)
	r.times = append(r.times, now)
}

// newPort wires a port labelled "n<owner>->n<peer>".
func newPort(n *Network, owner, peer Node, link LinkParams, q qdisc.Qdisc) *Port {
	return n.NewPort(owner, peer, link, q, fmt.Sprintf("n%d->n%d", owner.ID(), peer.ID()))
}

// twoHosts wires A -> B directly with the given link and queue.
func twoHosts(eng *sim.Engine, link LinkParams, q qdisc.Qdisc) (*Network, *Host, *Host, *sinkProto) {
	n := New(eng)
	a := n.NewHost("a")
	b := n.NewHost("b")
	a.AttachUplink(newPort(n, a, b, link, q))
	sink := &sinkProto{}
	b.AttachProtocol(sink)
	return n, a, b, sink
}

func mkPkt(n *Network, src, dst *Host, payload int) *packet.Packet {
	return &packet.Packet{
		ID:      n.NewPacketID(),
		Src:     packet.Addr{Node: src.ID(), Port: 1},
		Dst:     packet.Addr{Node: dst.ID(), Port: 2},
		Payload: payload,
		Flags:   packet.FlagACK,
	}
}

func TestSerializationPlusPropagationDelay(t *testing.T) {
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 10 * units.Microsecond}
	n, a, b, sink := twoHosts(eng, link, qdisc.NewDropTail(10))
	p := mkPkt(n, a, b, 1460) // 1500 bytes on the wire = 12 µs at 1 Gbps
	a.Send(p)
	eng.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets", len(sink.got))
	}
	want := units.Time(22 * units.Microsecond) // 12 tx + 10 prop
	if eng.Now() != want {
		t.Errorf("delivery at %v, want %v", eng.Now(), want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	// Two packets share one transmitter: the second is delayed by one
	// serialization time, not propagated in parallel.
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	n, a, b, _ := twoHosts(eng, link, qdisc.NewDropTail(10))
	rec := &recorder{}
	n.Subscribe(rec)
	a.Send(mkPkt(n, a, b, 1460))
	a.Send(mkPkt(n, a, b, 1460))
	eng.Run()
	if len(rec.times) != 2 {
		t.Fatalf("delivered %d", len(rec.times))
	}
	if rec.times[1]-rec.times[0] != units.Time(12*units.Microsecond) {
		t.Errorf("spacing = %v, want 12µs serialization", rec.times[1]-rec.times[0])
	}
}

func TestHopStamping(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	a := n.NewHost("a")
	sw := n.NewSwitch("sw")
	b := n.NewHost("b")
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	a.AttachUplink(newPort(n, a, sw, link, qdisc.NewDropTail(10)))
	down := newPort(n, sw, b, link, qdisc.NewDropTail(10))
	sw.AddPort(down)
	sw.SetRoute(b.ID(), down)
	sink := &sinkProto{}
	b.AttachProtocol(sink)

	p := mkPkt(n, a, b, 100)
	a.Send(p)
	eng.Run()
	if len(sink.got) != 1 {
		t.Fatal("not delivered")
	}
	if sink.got[0].Hops != 2 {
		t.Errorf("hops = %d, want 2 (host->switch->host)", sink.got[0].Hops)
	}
}

func TestSwitchRoutesByDestination(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	sw := n.NewSwitch("sw")
	hosts := make([]*Host, 3)
	sinks := make([]*sinkProto, 3)
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	for i := range hosts {
		hosts[i] = n.NewHost("h")
		hosts[i].AttachUplink(newPort(n, hosts[i], sw, link, qdisc.NewDropTail(10)))
		down := newPort(n, sw, hosts[i], link, qdisc.NewDropTail(10))
		sw.AddPort(down)
		sw.SetRoute(hosts[i].ID(), down)
		sinks[i] = &sinkProto{}
		hosts[i].AttachProtocol(sinks[i])
	}
	hosts[0].Send(mkPkt(n, hosts[0], hosts[1], 10))
	hosts[0].Send(mkPkt(n, hosts[0], hosts[2], 10))
	hosts[1].Send(mkPkt(n, hosts[1], hosts[2], 10))
	eng.Run()
	if len(sinks[0].got) != 0 || len(sinks[1].got) != 1 || len(sinks[2].got) != 2 {
		t.Errorf("deliveries = %d/%d/%d, want 0/1/2",
			len(sinks[0].got), len(sinks[1].got), len(sinks[2].got))
	}
}

func TestMisroutedPacketPanics(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	a := n.NewHost("a")
	b := n.NewHost("b")
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	// Wire a's uplink to b but address the packet to a third node id.
	a.AttachUplink(newPort(n, a, b, link, qdisc.NewDropTail(10)))
	p := mkPkt(n, a, b, 10)
	p.Dst.Node = 99
	a.Send(p)
	defer func() {
		if recover() == nil {
			t.Error("misrouted delivery must panic")
		}
	}()
	eng.Run()
}

func TestSwitchWithoutRoutePanics(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	a := n.NewHost("a")
	sw := n.NewSwitch("sw")
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	a.AttachUplink(newPort(n, a, sw, link, qdisc.NewDropTail(10)))
	p := mkPkt(n, a, a, 10)
	p.Dst.Node = 42
	a.Send(p)
	defer func() {
		if recover() == nil {
			t.Error("unrouted switch delivery must panic")
		}
	}()
	eng.Run()
}

func TestObserverSeesDropsAndDeliveries(t *testing.T) {
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	n, a, b, _ := twoHosts(eng, link, qdisc.NewDropTail(1))
	rec := &recorder{}
	n.Subscribe(rec)
	// Burst of 5: queue holds 1 + 1 in flight; expect drops.
	for i := 0; i < 5; i++ {
		a.Send(mkPkt(n, a, b, 1460))
	}
	eng.Run()
	drops := 0
	for _, v := range rec.enq {
		if v.Dropped() {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drops observed with 1-packet queue")
	}
	if len(rec.deliver)+drops != 5 {
		t.Errorf("delivered %d + dropped %d != 5", len(rec.deliver), drops)
	}
}

func TestPortCounters(t *testing.T) {
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	n, a, b, _ := twoHosts(eng, link, qdisc.NewDropTail(10))
	a.Send(mkPkt(n, a, b, 1460))
	a.Send(mkPkt(n, a, b, 460))
	eng.Run()
	pkts, bytes := a.Uplink().Sent()
	if pkts != 2 {
		t.Errorf("sent packets = %d", pkts)
	}
	if bytes != 1500+500 {
		t.Errorf("sent bytes = %d, want 2000", bytes)
	}
}

func TestSentAtStamped(t *testing.T) {
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	n, a, b, sink := twoHosts(eng, link, qdisc.NewDropTail(10))
	eng.Schedule(units.Time(5*units.Microsecond), func() {
		a.Send(mkPkt(n, a, b, 100))
	})
	eng.Run()
	if len(sink.got) != 1 || sink.got[0].SentAt != units.Time(5*units.Microsecond) {
		t.Error("SentAt not stamped at host send time")
	}
}

func TestLinkValidation(t *testing.T) {
	if (LinkParams{Rate: 0, Delay: 0}).Validate() == nil {
		t.Error("zero rate validated")
	}
	if (LinkParams{Rate: 1, Delay: -1}).Validate() == nil {
		t.Error("negative delay validated")
	}
	if (LinkParams{Rate: 1 * units.Gbps, Delay: 0}).Validate() != nil {
		t.Error("valid link rejected")
	}
}

func TestPacketIDsUnique(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := n.NewPacketID()
		if seen[id] {
			t.Fatalf("duplicate packet id %d", id)
		}
		seen[id] = true
	}
}

func TestOnSentHookFires(t *testing.T) {
	eng := sim.New()
	link := LinkParams{Rate: 1 * units.Gbps, Delay: 0}
	n, a, b, _ := twoHosts(eng, link, qdisc.NewDropTail(10))
	var sent []uint64
	a.Uplink().OnSent = func(p *packet.Packet) { sent = append(sent, p.ID) }
	p1 := mkPkt(n, a, b, 100)
	p2 := mkPkt(n, a, b, 100)
	a.Send(p1)
	a.Send(p2)
	eng.Run()
	if len(sent) != 2 || sent[0] != p1.ID || sent[1] != p2.ID {
		t.Errorf("OnSent saw %v, want [%d %d] in order", sent, p1.ID, p2.ID)
	}
}

func TestHeadDropperSurfacedToObserver(t *testing.T) {
	// A port wrapping a CoDel queue must report dequeue-time drops to the
	// shard's observers as early drops.
	eng := sim.New()
	net := New(eng)
	a := net.NewHost("a")
	bHost := net.NewHost("b")
	cfg := qdisc.DefaultCoDelConfig(1000, 10*units.Microsecond)
	cfg.ECN = true // non-ECT packets get dropped in the dropping state
	q := qdisc.NewCoDel(cfg)
	port := newPort(net, a, bHost, LinkParams{Rate: 1 * units.Mbps, Delay: 0}, q)
	a.AttachUplink(port)
	bHost.AttachProtocol(&sinkProto{})
	rec := &recorder{}
	net.Subscribe(rec)

	// Flood with ACKs at a rate far beyond the 1 Mbps drain: sojourn grows
	// well past target and CoDel starts dropping at the head.
	for i := 0; i < 400; i++ {
		p := mkPkt(net, a, bHost, 0)
		p.Wire = 40
		a.Send(p)
	}
	eng.Run()
	early := 0
	for _, v := range rec.enq {
		if v == qdisc.DroppedEarly {
			early++
		}
	}
	if early == 0 {
		t.Error("CoDel head drops never reached the observer")
	}
}

// headDropQueue is a FIFO that, like CoDel, drops at dequeue time: the head
// packet whose Seq is dropSeq goes to the head-drop callback instead of the
// transmitter.
type headDropQueue struct {
	*qdisc.DropTail
	dropSeq uint64
	onDrop  func(*packet.Packet)
}

func (q *headDropQueue) SetHeadDropCallback(fn func(*packet.Packet)) { q.onDrop = fn }

func (q *headDropQueue) Dequeue(now units.Time) *packet.Packet {
	p := q.DropTail.Dequeue(now)
	if p != nil && p.Seq == q.dropSeq {
		q.onDrop(p)
		p = q.DropTail.Dequeue(now)
	}
	return p
}

// sighting is one subscriber's sight of one event.
type sighting struct {
	shard, sub int
	site       string
	id         uint64
}

// siteLog is subscriber sub of a shard; it appends what it sees to a log
// every subscriber shares.
type siteLog struct {
	shard, sub int
	log        *[]sighting
}

func (l siteLog) PacketEnqueued(_ units.Time, _ *Port, p *packet.Packet, v qdisc.Verdict) {
	site := "enqueue"
	if v == qdisc.DroppedEarly {
		site = "head drop"
	}
	*l.log = append(*l.log, sighting{l.shard, l.sub, site, p.ID})
}

func (l siteLog) PacketDelivered(_ units.Time, p *packet.Packet) {
	*l.log = append(*l.log, sighting{l.shard, l.sub, "delivery", p.ID})
}

// TestSubscribersSeeEveryEventInOrder: each fan-out site — the enqueue
// verdict in Port.Send, the head drop NewPort registers with the qdisc, and
// the delivery in Host.Receive — hands its event to every subscriber of the
// port's or host's own shard, one after another in subscription order. The
// hosts sit on the last shard, so with two shards an event handed to shard
// 0's subscribers fails too.
func TestSubscribersSeeEveryEventInOrder(t *testing.T) {
	const subs = 3
	run := func(shards int) []sighting {
		engines := make([]*sim.Engine, shards)
		for i := range engines {
			engines[i] = sim.New()
		}
		n := NewSharded(engines)
		var log []sighting
		for sh := 0; sh < shards; sh++ {
			for sub := 0; sub < subs; sub++ {
				n.Shard(sh).Subscribe(siteLog{sh, sub, &log})
			}
		}
		last := shards - 1
		a, b := n.NewHostOn(last, "a"), n.NewHostOn(last, "b")
		q := &headDropQueue{DropTail: qdisc.NewDropTail(8), dropSeq: 1}
		a.AttachUplink(newPort(n, a, b, LinkParams{Rate: units.Gbps}, q))
		b.AttachProtocol(&sinkProto{})
		// Packet 0 starts serializing at once; 1 and 2 wait behind it, and
		// the next dequeue drops 1 at the head.
		for seq := uint64(0); seq < 3; seq++ {
			p := mkPkt(n, a, b, 100)
			p.Seq = seq
			a.Send(p)
		}
		engines[last].Run()
		return log
	}
	cases := []struct {
		site   string
		events int
	}{
		{"enqueue", 3},
		{"head drop", 1},
		{"delivery", 2},
	}
	for _, shards := range []int{1, 2} {
		log := run(shards)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.site, shards), func(t *testing.T) {
				var got []sighting
				for _, s := range log {
					if s.site == tc.site {
						got = append(got, s)
					}
				}
				if len(got) != tc.events*subs {
					t.Fatalf("%d sightings, want %d events x %d subscribers: %+v", len(got), tc.events, subs, got)
				}
				for i, s := range got {
					want := sighting{shard: shards - 1, sub: i % subs, site: tc.site, id: got[i-i%subs].id}
					if s != want {
						t.Errorf("sighting %d = %+v, want %+v", i, s, want)
					}
				}
			})
		}
	}
}

// ecmpPair builds src -> switch with two parallel links to dst: the smallest
// fabric with a genuine route group.
func ecmpPair(eng *sim.Engine, seed uint64) (*Network, *Host, *Host, *Switch, []*Port) {
	n := New(eng)
	n.SetFlowHashSeed(seed)
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	sw := n.NewSwitch("sw")
	link := LinkParams{Rate: 10 * units.Gbps, Delay: units.Microsecond}
	src.AttachUplink(newPort(n, src, sw, link, qdisc.NewDropTail(100)))
	p0 := newPort(n, sw, dst, link, qdisc.NewDropTail(100))
	p1 := newPort(n, sw, dst, link, qdisc.NewDropTail(100))
	sw.AddPort(p0)
	sw.AddPort(p1)
	sw.SetRoutes(dst.ID(), p0, p1)
	dst.AttachProtocol(&sinkProto{})
	return n, src, dst, sw, []*Port{p0, p1}
}

func TestECMPFlowStickiness(t *testing.T) {
	// Every packet of one flow must take the same candidate: ECMP must not
	// reorder within a connection.
	eng := sim.New()
	n, src, dst, _, ports := ecmpPair(eng, 42)
	for i := 0; i < 50; i++ {
		p := mkPkt(n, src, dst, 1460)
		p.Src.Port, p.Dst.Port = 1000, 2000
		src.Send(p)
	}
	eng.Run()
	s0, _ := ports[0].Sent()
	s1, _ := ports[1].Sent()
	if s0+s1 != 50 {
		t.Fatalf("sent %d+%d packets, want 50", s0, s1)
	}
	if s0 != 0 && s1 != 0 {
		t.Errorf("one flow split across candidates: %d vs %d", s0, s1)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	// Many distinct flows must land on both candidates.
	eng := sim.New()
	n, src, dst, _, ports := ecmpPair(eng, 42)
	for f := 0; f < 64; f++ {
		p := mkPkt(n, src, dst, 100)
		p.Src.Port = uint16(1000 + f)
		src.Send(p)
	}
	eng.Run()
	s0, _ := ports[0].Sent()
	s1, _ := ports[1].Sent()
	if s0 == 0 || s1 == 0 {
		t.Errorf("64 flows all hashed onto one candidate: %d vs %d", s0, s1)
	}
}

func TestFlowHashDeterministicAndSeedSensitive(t *testing.T) {
	a := packet.Addr{Node: 3, Port: 1234}
	b := packet.Addr{Node: 9, Port: 80}
	if FlowHash(7, a, b) != FlowHash(7, a, b) {
		t.Error("FlowHash not deterministic")
	}
	diff := 0
	for s := uint64(0); s < 32; s++ {
		if FlowHash(s, a, b)%2 != FlowHash(s+1, a, b)%2 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("flow-to-path assignment never changes with the seed")
	}
}

func TestSingleRouteFastPathAndAccessors(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	h := n.NewHost("h")
	sw := n.NewSwitch("sw")
	link := LinkParams{Rate: units.Gbps, Delay: 0}
	p0 := newPort(n, sw, h, link, qdisc.NewDropTail(10))
	sw.AddPort(p0)
	sw.SetRoutes(h.ID(), p0) // a 1-entry group forwards without hashing
	if sw.RouteFor(h.ID()) != p0 {
		t.Error("RouteFor lost the single candidate")
	}
	if got := sw.RoutesFor(h.ID()); len(got) != 1 || got[0] != p0 {
		t.Errorf("RoutesFor = %v", got)
	}
	sw.ClearRoute(h.ID())
	if sw.RouteFor(h.ID()) != nil || sw.RoutesFor(h.ID()) != nil {
		t.Error("ClearRoute left a route behind")
	}
}

// routePanic forwards a packet for dst into sw and returns the panic it
// raised ("" if none).
func routePanic(t *testing.T, n *Network, sw *Switch, dst packet.NodeID) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	sw.Receive(&packet.Packet{ID: n.NewPacketID(), Dst: packet.Addr{Node: dst}})
	return ""
}

func TestUnroutedDestinationPanicsWithItsID(t *testing.T) {
	n := New(sim.New())
	sw := n.NewSwitch("sw")
	h := n.NewHost("h")
	link := LinkParams{Rate: units.Gbps}
	p := newPort(n, sw, h, link, qdisc.NewDropTail(10))
	sw.SetRoute(h.ID(), p)
	past := packet.NodeID(len(sw.route) + 5)
	if got, want := routePanic(t, n, sw, past), fmt.Sprintf("netsim: switch sw has no route to n%d", past); got != want {
		t.Errorf("past the table: panic %q, want %q", got, want)
	}
	sw.ClearRoute(h.ID())
	if got, want := routePanic(t, n, sw, h.ID()), fmt.Sprintf("netsim: switch sw has no route to n%d", h.ID()); got != want {
		t.Errorf("cleared route: panic %q, want %q", got, want)
	}
	if got := routePanic(t, n, sw, -1); got != "netsim: switch sw has no route to n-1" {
		t.Errorf("negative id: panic %q", got)
	}
}

func TestRouteGroupsAreSharedAndSlotsReused(t *testing.T) {
	n := New(sim.New())
	sw := n.NewSwitch("sw")
	link := LinkParams{Rate: units.Gbps}
	var dsts []*Host
	var ports []*Port
	for i := 0; i < 4; i++ {
		h := n.NewHost(fmt.Sprintf("h%d", i))
		dsts = append(dsts, h)
		ports = append(ports, newPort(n, sw, h, link, qdisc.NewDropTail(10)))
	}
	// Every destination gets the same two candidates, in one order.
	for _, h := range dsts {
		sw.SetRoutes(h.ID(), ports[0], ports[1])
	}
	first := sw.RoutesFor(dsts[0].ID())
	for _, h := range dsts[1:] {
		if got := sw.RoutesFor(h.ID()); &got[0] != &first[0] || len(got) != 2 {
			t.Fatalf("n%d holds its own copy of the group", h.ID())
		}
	}
	if sw.RouteGroups() != 1 {
		t.Fatalf("RouteGroups = %d after one distinct group, want 1", sw.RouteGroups())
	}
	// The reverse order is a different hash mapping, so a different group.
	sw.SetRoutes(dsts[3].ID(), ports[1], ports[0])
	if got := sw.RoutesFor(dsts[3].ID()); got[0] != ports[1] || got[1] != ports[0] {
		t.Fatalf("reordered group = %v", got)
	}
	if sw.RouteGroups() != 2 {
		t.Fatalf("RouteGroups = %d, want 2", sw.RouteGroups())
	}
	// Flip every route between two groups many times: replaced groups free
	// their slots, so the table stays at its high-water mark.
	for round := 0; round < 10; round++ {
		for _, h := range dsts {
			sw.SetRoutes(h.ID(), ports[2], ports[3])
		}
		for _, h := range dsts {
			sw.SetRoute(h.ID(), ports[0])
		}
	}
	if sw.RouteGroups() > 3 {
		t.Errorf("RouteGroups = %d after repeated rebuilds, want <= 3", sw.RouteGroups())
	}
	if got := sw.RoutesFor(dsts[2].ID()); len(got) != 1 || got[0] != ports[0] {
		t.Errorf("final route = %v", got)
	}
	// The caller's slice is copied, never aliased.
	cands := []*Port{ports[2], ports[3]}
	sw.SetRoutes(dsts[0].ID(), cands...)
	cands[0] = ports[0]
	if got := sw.RoutesFor(dsts[0].ID()); got[0] != ports[2] {
		t.Error("SetRoutes aliased the caller's candidate slice")
	}
}
