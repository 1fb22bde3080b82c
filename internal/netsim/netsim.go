// Package netsim implements the packet-level network fabric: hosts with a
// protocol stack attachment, switches with per-destination forwarding and
// per-egress-port queue disciplines, and links with serialization and
// propagation delay. Together with internal/sim it stands in for NS-2 in the
// paper's methodology.
package netsim

import (
	"fmt"
	"slices"

	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Observer receives fabric-level events: the metrics views, the hybrid
// engine's fluid controller, the congestion notifier and packet tracers all
// subscribe to a shard (Shard.Subscribe). All methods may be called at very
// high rate; implementations must be cheap.
type Observer interface {
	// PacketEnqueued reports an Enqueue verdict at a port's qdisc, and a
	// dequeue-time head drop (CoDel) as DroppedEarly.
	PacketEnqueued(now units.Time, port *Port, p *packet.Packet, v qdisc.Verdict)
	// PacketDelivered reports final delivery of a packet to its
	// destination host (after the last hop).
	PacketDelivered(now units.Time, p *packet.Packet)
}

// Node is anything packets can be handed to: hosts and switches.
type Node interface {
	ID() packet.NodeID
	// Receive accepts a packet that has finished propagating over a link.
	Receive(p *packet.Packet)
}

// Shard is one fabric partition's execution domain: its own engine, packet
// free list, propagation-cell free list, packet-ID namespace and observers.
// A serial network is exactly one shard; nothing in the hot path branches on
// the shard count beyond a same-shard pointer comparison per hop.
type Shard struct {
	id        int
	eng       *sim.Engine
	net       *Network
	observers []Observer
	pool      packet.Pool
	propFree  []*propCell
	nextPkt   uint64
}

// ID returns the shard index.
func (sh *Shard) ID() int { return sh.id }

// Eng returns the shard's engine.
func (sh *Shard) Eng() *sim.Engine { return sh.eng }

// Subscribe appends o to the shard's observers. Every event of the shard's
// ports and hosts reaches every observer, in subscription order; a later
// subscriber never displaces an earlier one.
func (sh *Shard) Subscribe(o Observer) { sh.observers = append(sh.observers, o) }

// noteVerdict hands one verdict at port to every observer of the shard.
func (sh *Shard) noteVerdict(now units.Time, port *Port, pkt *packet.Packet, v qdisc.Verdict) {
	for _, o := range sh.observers {
		o.PacketEnqueued(now, port, pkt, v)
	}
}

// allocPacket returns a zeroed packet with an ID from the shard's strided
// namespace: shard i mints i+1, i+1+S, i+1+2S, … so IDs stay unique across
// shards and, with one shard, identical to the historical sequence 1, 2, 3…
func (sh *Shard) allocPacket() *packet.Packet {
	p := sh.pool.Get()
	p.ID = sh.nextPkt*uint64(len(sh.net.shards)) + uint64(sh.id) + 1
	sh.nextPkt++
	return p
}

// laneEntry is one cross-shard packet handoff: an arrival scheduled on the
// destination shard at the next barrier, backdated to the sender's lineage
// at send time so it sorts exactly where the serial engine would have
// placed it.
type laneEntry struct {
	at   units.Time
	lin  sim.Lineage
	tok  sim.Token
	peer Node
	pkt  *packet.Packet
}

// pktToken derives the residual-tie ordering token of a propagation event
// from the packet's flow identity and header. Two in-flight packets can
// carry time-identical causal histories at any bounded lineage depth
// (phase-locked lockstep transfers), and the serial engine's order between
// them is then an accident of scheduling order that a sharded run cannot
// reproduce; the token gives both engines the same content-derived
// resolution. Same-flow packets that collide in every field below differ in
// send time and hence in lineage, so the truncations are safe in practice —
// and a full collision merely falls through to the engine-local seq, the
// pre-token status quo.
func pktToken(pkt *packet.Packet) sim.Token {
	return sim.Token{
		uint64(uint32(pkt.Src.Node))<<32 | uint64(uint32(pkt.Dst.Node)),
		uint64(pkt.Src.Port)<<48 | uint64(pkt.Dst.Port)<<32 |
			(pkt.Seq&0xffffff)<<8 | uint64(pkt.Flags)&0xff,
	}
}

// Network owns the set of nodes, allocates packet IDs and fans out observer
// events. It also owns the run's packet free lists: every packet the
// transports send comes from AllocPacket and returns to a shard pool at its
// drop or delivery site, so the steady-state fabric allocates nothing.
type Network struct {
	Engine *sim.Engine // shard 0's engine; THE engine of a serial network
	nodes  map[packet.NodeID]Node
	nextID packet.NodeID

	// hashSeed salts the ECMP flow hash. It is derived from the run seed
	// (never from global state), so multipath path selection is
	// deterministic in (configuration, seed) regardless of how many runner
	// workers execute simulations concurrently.
	hashSeed uint64

	shards []*Shard
	// lanes[dst*S+src] buffers cross-shard handoffs. Each lane has exactly
	// one writer per window (the source shard's worker, or the coordinator
	// during serial phases) and is drained by the coordinator at barriers,
	// so no lane is ever accessed from two goroutines without a barrier
	// between them.
	lanes [][]laneEntry

	// OnCrossShardArrival, if non-nil, observes every drained handoff with
	// the destination clock at drain time (test hook for the lookahead
	// safety property: at >= dstNow always, or the horizon math is wrong).
	OnCrossShardArrival func(dst int, at, dstNow units.Time)
}

// New creates an empty serial (single-shard) network on the given engine.
func New(eng *sim.Engine) *Network {
	return NewSharded([]*sim.Engine{eng})
}

// NewSharded creates an empty network partitioned over the given engines,
// one shard per engine. Network.Engine aliases shard 0's engine.
func NewSharded(engines []*sim.Engine) *Network {
	if len(engines) == 0 {
		panic("netsim: NewSharded with no engines")
	}
	n := &Network{
		Engine: engines[0],
		nodes:  make(map[packet.NodeID]Node),
	}
	n.shards = make([]*Shard, len(engines))
	for i, eng := range engines {
		n.shards[i] = &Shard{id: i, eng: eng, net: n}
	}
	if len(engines) > 1 {
		n.lanes = make([][]laneEntry, len(engines)*len(engines))
	}
	return n
}

// ShardCount returns the number of fabric partitions.
func (n *Network) ShardCount() int { return len(n.shards) }

// Shard returns the i'th partition.
func (n *Network) Shard(i int) *Shard { return n.shards[i] }

// Subscribe appends o to every shard's observers. o then runs on every
// shard's worker, so it may write only state that belongs to the port or
// host an event names.
func (n *Network) Subscribe(o Observer) {
	for _, sh := range n.shards {
		sh.Subscribe(o)
	}
}

// PoolBatch is the free-list depth the barrier tops every shard's packet
// pool up to (see balancePools).
const PoolBatch = 256

// DrainCrossShard schedules every buffered cross-shard handoff onto its
// destination engine with its key backdated to the send time, and then
// balances the shards' packet pools. The caller is the group coordinator,
// at a barrier: every shard worker is parked, so the single-writer lane
// discipline holds and every pool is the coordinator's.
//
// The drain does not sort. The destination heap orders events by (arrival
// time, lineage, token) and then by the order they were scheduled in, so
// scheduling the lanes source by source, each in emission order, fires the
// handoffs in (arrival time, lineage, token, source shard, emission order),
// the order a serial engine gives them. Each lineage is copied once, from
// the lane into the destination's record.
func (n *Network) DrainCrossShard() {
	s := len(n.shards)
	if s == 1 {
		return
	}
	for dst, sh := range n.shards {
		dstNow := sh.eng.Now()
		lanes := n.lanes[dst*s : (dst+1)*s]
		for src, lane := range lanes {
			for i := range lane {
				e := &lane[i]
				if e.at < dstNow {
					panic(fmt.Sprintf("netsim: lookahead violation: cross-shard arrival at %v drained after shard %d reached %v", e.at, dst, dstNow))
				}
				if n.OnCrossShardArrival != nil {
					n.OnCrossShardArrival(dst, e.at, dstNow)
				}
				sh.eng.ScheduleArgKey(e.at, &e.lin, e.tok, propArrive, sh.newPropCell(e.peer, e.pkt))
				// Only the pointers need clearing: the lane's next append
				// overwrites the rest.
				e.peer, e.pkt = nil, nil
			}
			lanes[src] = lane[:0]
		}
	}
	n.balancePools()
}

// balancePools tops up every shard pool holding fewer than PoolBatch free
// packets from the pools holding more, in shard order. A packet is minted
// from its sender's shard pool and released into its receiver's, so without
// this a shard that mostly sends keeps allocating while one that mostly
// receives piles up free packets. Packet IDs come from per-shard counters,
// not from the pools, so moving free packets changes no result.
func (n *Network) balancePools() {
	for _, dst := range n.shards {
		need := PoolBatch - dst.pool.Len()
		for _, src := range n.shards {
			if need <= 0 {
				break
			}
			if spare := src.pool.Len() - PoolBatch; spare > 0 {
				need -= src.pool.MoveTo(&dst.pool, min(need, spare))
			}
		}
	}
}

// PendingCrossShard reports whether any handoff lane holds undrained
// entries (for tests).
func (n *Network) PendingCrossShard() bool {
	for _, lane := range n.lanes {
		if len(lane) > 0 {
			return true
		}
	}
	return false
}

// SetFlowHashSeed salts the ECMP flow hash for this run. Call it once at
// build time; changing the seed mid-run would migrate live flows between
// paths.
func (n *Network) SetFlowHashSeed(seed uint64) { n.hashSeed = seed }

// FlowHashSeed returns the run's ECMP hash salt.
func (n *Network) FlowHashSeed() uint64 { return n.hashSeed }

// NewPacketID allocates a unique packet ID from shard 0's namespace.
func (n *Network) NewPacketID() uint64 {
	sh := n.shards[0]
	id := sh.nextPkt*uint64(len(n.shards)) + 1
	sh.nextPkt++
	return id
}

// AllocPacket returns a zeroed packet with a fresh ID, recycled from shard
// 0's pool when possible. Sharded callers allocate through their Host
// instead, which routes to the host's own shard. Packets obtained here are
// released back automatically when the fabric drops or delivers them; the
// sender must not retain them past the hand-off to Host.Send.
func (n *Network) AllocPacket() *packet.Packet {
	return n.shards[0].allocPacket()
}

// ReleasePacket returns a packet to shard 0's pool. Packets not created by
// AllocPacket (e.g. hand-built in tests) are ignored.
func (n *Network) ReleasePacket(p *packet.Packet) { n.shards[0].pool.Put(p) }

// PoolStats reports (fresh allocations, free-list reuses) summed over every
// shard's packet pool.
func (n *Network) PoolStats() (news, reuses uint64) {
	for _, sh := range n.shards {
		a, b := sh.pool.Stats()
		news += a
		reuses += b
	}
	return news, reuses
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id packet.NodeID) Node { return n.nodes[id] }

func (n *Network) register(node Node) packet.NodeID {
	id := n.nextID
	n.nextID++
	n.nodes[id] = node
	return id
}

// LinkParams describes one direction of a link.
type LinkParams struct {
	Rate  units.Bandwidth
	Delay units.Duration // propagation
}

// Validate reports a parameter error, or nil.
func (l LinkParams) Validate() error {
	if l.Rate <= 0 {
		return fmt.Errorf("netsim: link rate %v must be positive", l.Rate)
	}
	if l.Delay < 0 {
		return fmt.Errorf("netsim: link delay %v must be non-negative", l.Delay)
	}
	return nil
}

// Port is a unidirectional egress interface: it serializes packets from its
// queue discipline onto a link toward a fixed peer node. A bidirectional
// cable is modelled as two Ports, one on each end.
type Port struct {
	net    *Network
	owner  Node
	peer   Node
	sh     *Shard // owner's shard: all port events run here
	peerSh *Shard // peer's shard: != sh marks a cross-shard link
	link   LinkParams
	queue  qdisc.Qdisc
	busy   bool
	txPkt  *packet.Packet // packet currently serializing (busy only)

	// Label identifies the port in reports, e.g. "sw0->host3".
	Label string

	// OnSent, if non-nil, runs when a packet finishes serializing onto the
	// link. Host uplinks use it to deliver TSQ-style backpressure to the
	// transport.
	OnSent func(p *packet.Packet)

	// Counters.
	sentPackets uint64
	sentBytes   units.ByteSize

	// Congestion-notification state (notify.go). hotUntil/hotGen and gate are
	// written only in control context and read by the owning shard between
	// barriers — the same synchronization discipline as the fluid
	// controller's port state. rerouted is written only by the owning shard.
	hotUntil units.Time      // reselection steers flows off this port until then
	hotGen   uint64          // re-salt generation, advanced per hot episode
	gate     units.Bandwidth // injection throttle (0 = line rate)
	noti     *notifyPort     // notifier registration, nil if untracked
	rerouted uint64          // packets steered away while this port was hot
}

// hotAt reports whether the port is inside a reselection hot window. The
// zero hotUntil doubles as "never marked", so the cold fast path is a single
// field compare.
func (p *Port) hotAt(now units.Time) bool { return p.hotUntil != 0 && now < p.hotUntil }

// MarkHot opens a reselection hot window on the port until the given time,
// advancing the re-salt generation if the port was cold. Exported for the
// route-reselection property tests; simulation code marks ports through a
// Notifier, in control context only.
func (p *Port) MarkHot(until units.Time) {
	if !p.hotAt(p.sh.eng.Now()) {
		p.hotGen++
	}
	p.hotUntil = until
}

// NewPort wires an egress port from owner to peer with the given link
// parameters, queue discipline and report label.
func (n *Network) NewPort(owner, peer Node, link LinkParams, q qdisc.Qdisc, label string) *Port {
	if err := link.Validate(); err != nil {
		panic(err)
	}
	if q == nil {
		panic("netsim: port requires a qdisc")
	}
	p := &Port{
		net:    n,
		owner:  owner,
		peer:   peer,
		sh:     n.shardOf(owner),
		peerSh: n.shardOf(peer),
		link:   link,
		queue:  q,
		Label:  label,
	}
	// Surface dequeue-time drops (CoDel) to the observers; they would
	// otherwise be invisible, since observers only see enqueue verdicts.
	if hd, ok := q.(qdisc.HeadDropper); ok {
		hd.SetHeadDropCallback(func(pkt *packet.Packet) {
			p.sh.noteVerdict(p.sh.eng.Now(), p, pkt, qdisc.DroppedEarly)
			p.sh.pool.Put(pkt)
		})
	}
	return p
}

// shardOf resolves a node's shard. Nodes not built by this network's
// constructors (test doubles implementing Node directly) land on shard 0.
func (n *Network) shardOf(node Node) *Shard {
	switch v := node.(type) {
	case *Host:
		return v.sh
	case *Switch:
		return v.sh
	}
	return n.shards[0]
}

// Queue exposes the port's queue discipline (for snapshots and tests).
func (p *Port) Queue() qdisc.Qdisc { return p.queue }

// Link returns the link parameters.
func (p *Port) Link() LinkParams { return p.link }

// SetLinkRate re-parameterizes the link's serialization rate in place —
// the fabric-level hook behind link derating. The new rate applies from the
// next packet that starts serializing; a packet already on the wire finishes
// at the old rate.
func (p *Port) SetLinkRate(r units.Bandwidth) {
	l := p.link
	l.Rate = r
	if err := l.Validate(); err != nil {
		panic(err)
	}
	p.link = l
}

// Peer returns the node at the far end.
func (p *Port) Peer() Node { return p.peer }

// Shard returns the partition the port's events run on: its owner's.
func (p *Port) Shard() *Shard { return p.sh }

// Owner returns the node that owns this egress.
func (p *Port) Owner() Node { return p.owner }

// Sent returns the packets and bytes fully serialized onto the link.
func (p *Port) Sent() (uint64, units.ByteSize) { return p.sentPackets, p.sentBytes }

// Send offers a packet to the egress queue and starts the transmitter if it
// is idle. The verdict goes to the shard's observers; a dropped packet then
// returns to the packet pool.
func (p *Port) Send(pkt *packet.Packet) {
	now := p.sh.eng.Now()
	v := p.queue.Enqueue(now, pkt)
	p.sh.noteVerdict(now, p, pkt, v)
	if v.Dropped() {
		p.sh.pool.Put(pkt)
		return
	}
	if !p.busy {
		p.transmitNext()
	}
}

// propCell carries one in-flight propagation (peer, packet) across the
// link-delay event. Cells are pooled per shard so the per-hop events
// allocate nothing; the pair of predeclared trampolines below replaces the
// two closures a transmission used to capture.
type propCell struct {
	sh   *Shard
	peer Node
	pkt  *packet.Packet
}

// newPropCell takes a cell from the shard's free list or mints one.
func (sh *Shard) newPropCell(peer Node, pkt *packet.Packet) *propCell {
	if k := len(sh.propFree); k > 0 {
		c := sh.propFree[k-1]
		sh.propFree[k-1] = nil
		sh.propFree = sh.propFree[:k-1]
		c.peer, c.pkt = peer, pkt
		return c
	}
	return &propCell{sh: sh, peer: peer, pkt: pkt}
}

// propArrive fires when a packet finishes propagating: recycle the cell,
// then hand the packet to the far end.
func propArrive(arg any) {
	c := arg.(*propCell)
	sh, peer, pkt := c.sh, c.peer, c.pkt
	c.peer, c.pkt = nil, nil
	sh.propFree = append(sh.propFree, c)
	pkt.Hops++
	peer.Receive(pkt)
}

// portTxDone fires as the last bit of the current packet leaves the port.
func portTxDone(arg any) {
	p := arg.(*Port)
	pkt := p.txPkt
	p.txPkt = nil
	p.sentPackets++
	p.sentBytes += pkt.Size()
	if p.OnSent != nil {
		p.OnSent(pkt)
	}
	// Transmitter becomes free as the last bit leaves.
	p.transmitNext()
}

// transmitNext pulls the head packet and schedules its serialization and
// propagation. Invariant: called only when the transmitter is idle.
//
// On a cross-shard link the arrival cannot be scheduled directly — the peer's
// heap belongs to another goroutine — so it becomes a lane entry drained at
// the next barrier. Its arrival lag (tx + propagation delay) is at least the
// group's lookahead by construction of the shard cut, which is exactly why
// one barrier per window suffices.
func (p *Port) transmitNext() {
	eng := p.sh.eng
	now := eng.Now()
	pkt := p.queue.Dequeue(now)
	if pkt == nil {
		p.busy = false
		return
	}
	p.busy = true
	p.txPkt = pkt
	rate := p.link.Rate
	if p.gate != 0 && p.gate < rate {
		// Injection throttle: a one-MTU-deep token bucket refilled at the
		// gate rate — equivalently, serialization paced down to the gate.
		rate = p.gate
	}
	tx := rate.TransmitTime(pkt.Size())
	eng.AfterArg(tx, portTxDone, p)
	if p.peerSh == p.sh {
		eng.AfterArgToken(tx+p.link.Delay, pktToken(pkt), propArrive, p.sh.newPropCell(p.peer, pkt))
		return
	}
	n := p.net
	lane := &n.lanes[p.peerSh.id*len(n.shards)+p.sh.id]
	*lane = append(*lane, laneEntry{})
	h := &(*lane)[len(*lane)-1]
	h.at = now.Add(tx + p.link.Delay)
	eng.ChildLineage(&h.lin) // the lineage's one copy
	h.tok = pktToken(pkt)
	h.peer = p.peer
	h.pkt = pkt
}

// Protocol is the stack a Host delivers packets to (implemented by
// internal/tcp's Stack).
type Protocol interface {
	Deliver(p *packet.Packet)
}

// Host is an end system with a single uplink port and an attached protocol
// stack.
type Host struct {
	id     packet.NodeID
	net    *Network
	sh     *Shard
	uplink *Port
	proto  Protocol

	// Name is a human label, e.g. "node07".
	Name string
}

// NewHost registers a new host on shard 0.
func (n *Network) NewHost(name string) *Host {
	return n.NewHostOn(0, name)
}

// NewHostOn registers a new host on the given shard.
func (n *Network) NewHostOn(shard int, name string) *Host {
	h := &Host{net: n, sh: n.shards[shard], Name: name}
	h.id = n.register(h)
	return h
}

// ID implements Node.
func (h *Host) ID() packet.NodeID { return h.id }

// Network returns the owning network.
func (h *Host) Network() *Network { return h.net }

// Shard returns the host's fabric partition.
func (h *Host) Shard() *Shard { return h.sh }

// Engine returns the engine the host's events run on — the shard engine.
// Protocol stacks must schedule their timers here, never on a cached global
// engine.
func (h *Host) Engine() *sim.Engine { return h.sh.eng }

// AllocPacket allocates from the host's shard (see Network.AllocPacket).
func (h *Host) AllocPacket() *packet.Packet { return h.sh.allocPacket() }

// AttachUplink installs the host's egress port.
func (h *Host) AttachUplink(p *Port) { h.uplink = p }

// Uplink returns the host's egress port.
func (h *Host) Uplink() *Port { return h.uplink }

// AttachProtocol installs the protocol stack that receives delivered
// packets.
func (h *Host) AttachProtocol(p Protocol) { h.proto = p }

// Send transmits a packet from this host into the fabric. It stamps SentAt.
func (h *Host) Send(pkt *packet.Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %s has no uplink", h.Name))
	}
	pkt.SentAt = h.sh.eng.Now()
	h.uplink.Send(pkt)
}

// Receive implements Node: a packet has arrived addressed to this host. The
// packet is released back to the pool once the protocol stack returns —
// stacks consume packets synchronously and must not retain them.
func (h *Host) Receive(pkt *packet.Packet) {
	if pkt.Dst.Node != h.id {
		panic(fmt.Sprintf("netsim: host n%d received packet for n%d (misrouted)", h.id, pkt.Dst.Node))
	}
	now := h.sh.eng.Now()
	for _, o := range h.sh.observers {
		o.PacketDelivered(now, pkt)
	}
	if h.proto != nil {
		h.proto.Deliver(pkt)
	}
	h.sh.pool.Put(pkt)
}

// FlowHash maps a (seed, 5-tuple) to a 64-bit value used for ECMP egress
// selection. The simulated protocol field is always TCP, so the tuple
// reduces to the two addresses. The mix is a splitmix64 finalizer: cheap,
// allocation-free, and deterministic in the seed — reseeding per run keeps
// results bit-identical across Runner worker counts while still decorrelating
// path assignment between seeds.
func FlowHash(seed uint64, src, dst packet.Addr) uint64 {
	x := seed
	x ^= uint64(uint32(src.Node)) | uint64(uint32(dst.Node))<<32
	x ^= (uint64(src.Port) | uint64(dst.Port)<<16) << 13
	return rng.SplitMix64(x)
}

// Switch forwards packets to an egress port registered for the packet's
// destination node. A destination may have a group of candidate egresses
// (ECMP); members of a group are resolved per flow by FlowHash, so one TCP
// connection always takes one path (no intra-flow reordering).
//
// Routes are a dense table indexed by destination NodeID (node IDs are
// sequential) holding an index into the switch's distinct candidate groups.
// Each distinct candidate list is stored once, however many destinations
// share it: a healthy leaf holds one group per local host and a single
// spine group for every remote host. The table holds no pointers, so the
// collector never scans it.
type Switch struct {
	id     packet.NodeID
	net    *Network
	sh     *Shard
	route  []int32   // [dst] -> index into groups; 0 = unrouted
	groups [][]*Port // distinct candidate lists; groups[0] is the unrouted nil
	refs   []int32   // routes per group; a slot at zero refs is nil and free
	last   int32     // the group installed last: consecutive routes share it
	ports  []*Port

	// Name is a human label, e.g. "tor0".
	Name string
}

// NewSwitch registers a new switch on shard 0.
func (n *Network) NewSwitch(name string) *Switch {
	return n.NewSwitchOn(0, name)
}

// NewSwitchOn registers a new switch on the given shard.
func (n *Network) NewSwitchOn(shard int, name string) *Switch {
	s := &Switch{net: n, sh: n.shards[shard], groups: [][]*Port{nil}, refs: []int32{0}, Name: name}
	s.id = n.register(s)
	return s
}

// ID implements Node.
func (s *Switch) ID() packet.NodeID { return s.id }

// Shard returns the switch's fabric partition.
func (s *Switch) Shard() *Shard { return s.sh }

// AddPort registers an egress port on the switch.
func (s *Switch) AddPort(p *Port) { s.ports = append(s.ports, p) }

// Ports returns the switch's egress ports.
func (s *Switch) Ports() []*Port { return s.ports }

// SetRoute directs traffic for dst out of the single port p, replacing any
// previous route or route group.
func (s *Switch) SetRoute(dst packet.NodeID, p *Port) {
	if p == nil {
		panic(fmt.Sprintf("netsim: switch %s: nil route to n%d", s.Name, dst))
	}
	s.SetRoutes(dst, p)
}

// SetRoutes installs a route group for dst: one or more candidate egress
// ports resolved per flow by FlowHash. Candidate order matters — it is part
// of the deterministic hash-to-port mapping — so callers must present
// candidates in a stable order. Destinations given the same candidates in
// the same order share one stored group.
func (s *Switch) SetRoutes(dst packet.NodeID, ports ...*Port) {
	if len(ports) == 0 {
		panic(fmt.Sprintf("netsim: switch %s: empty route group to n%d", s.Name, dst))
	}
	for _, p := range ports {
		if p == nil {
			panic(fmt.Sprintf("netsim: switch %s: nil candidate in route group to n%d", s.Name, dst))
		}
	}
	g := s.groupOf(ports)
	if int(dst) >= len(s.route) {
		s.route = append(s.route, make([]int32, int(dst)+1-len(s.route))...)
	}
	old := s.route[dst]
	s.route[dst] = g
	s.refs[g]++
	s.release(old)
}

// groupOf returns the index of the stored group equal to ports, storing a
// copy in the first free slot (or a new one) if there is none. Replaced
// routes free their slots, so rebuilding the routes after a link failure
// reuses slots instead of growing the table.
func (s *Switch) groupOf(ports []*Port) int32 {
	if slices.Equal(s.groups[s.last], ports) {
		return s.last
	}
	free := int32(0)
	for i := int32(1); i < int32(len(s.groups)); i++ {
		switch g := s.groups[i]; {
		case g == nil:
			if free == 0 {
				free = i
			}
		case slices.Equal(g, ports):
			s.last = i
			return i
		}
	}
	if free == 0 {
		free = int32(len(s.groups))
		s.groups = append(s.groups, nil)
		s.refs = append(s.refs, 0)
	}
	s.groups[free] = slices.Clone(ports)
	s.last = free
	return free
}

// release drops one route's reference to group g and frees the slot when
// no route uses it any more.
func (s *Switch) release(g int32) {
	if g == 0 {
		return
	}
	if s.refs[g]--; s.refs[g] == 0 {
		s.groups[g] = nil
	}
}

// ClearRoute removes any route or route group for dst.
func (s *Switch) ClearRoute(dst packet.NodeID) {
	if uint(dst) < uint(len(s.route)) {
		s.release(s.route[dst])
		s.route[dst] = 0
	}
}

// group returns the candidate egresses for dst, or nil if it is unrouted.
func (s *Switch) group(dst packet.NodeID) []*Port {
	if uint(dst) >= uint(len(s.route)) {
		return nil
	}
	return s.groups[s.route[dst]]
}

// RouteGroups returns the number of slots in the switch's group table:
// the distinct candidate lists it stores, plus slots freed by route changes
// and kept for reuse.
func (s *Switch) RouteGroups() int { return len(s.groups) - 1 }

// RouteFor returns the egress port for dst — the first candidate of a
// multipath group — or nil.
func (s *Switch) RouteFor(dst packet.NodeID) *Port {
	if g := s.group(dst); g != nil {
		return g[0]
	}
	return nil
}

// RoutesFor returns every candidate egress port for dst (nil if unrouted).
// The returned slice is the switch's own, shared by every destination with
// the same candidates; callers must not mutate it.
func (s *Switch) RoutesFor(dst packet.NodeID) []*Port { return s.group(dst) }

// Receive implements Node: forward toward the destination, hashing the flow
// over the candidate group when the destination is multipath.
func (s *Switch) Receive(pkt *packet.Packet) {
	g := s.group(pkt.Dst.Node)
	if g == nil {
		panic(fmt.Sprintf("netsim: switch %s has no route to n%d", s.Name, pkt.Dst.Node))
	}
	p, primary := selectEgress(s.net.hashSeed, g, pkt.Src, pkt.Dst, s.sh.eng.Now())
	if p != primary {
		primary.rerouted++
	}
	p.Send(pkt)
}

// selectEgress resolves the ECMP pick for (src, dst) over a multipath group
// at time now: the flow-hashed primary, or — when the primary is inside a
// hot window — a cold candidate chosen by re-salting the hash with the hot
// port's episode generation. The generation is fixed per episode, so one
// flow keeps one alternate path for the whole affinity window (no flapping),
// and candidates only ever come from the group itself, which the route
// rebuild keeps free of failed links. With every candidate hot the primary
// stands. Returns (pick, primary); a never-marked group costs one field
// compare over the pre-notification hot path. A one-port group is its own
// pick: there is nothing to hash over and no alternate to steer onto.
func selectEgress(seed uint64, many []*Port, src, dst packet.Addr, now units.Time) (pick, primary *Port) {
	if len(many) == 1 {
		return many[0], many[0]
	}
	primary = many[FlowHash(seed, src, dst)%uint64(len(many))]
	if !primary.hotAt(now) {
		return primary, primary
	}
	cold := 0
	for _, q := range many {
		if !q.hotAt(now) {
			cold++
		}
	}
	if cold == 0 {
		return primary, primary
	}
	k := FlowHash(seed^primary.hotGen*0x9e37_79b9_7f4a_7c15, src, dst) % uint64(cold)
	for _, q := range many {
		if q.hotAt(now) {
			continue
		}
		if k == 0 {
			return q, primary
		}
		k--
	}
	return primary, primary
}

// PathPorts appends to buf the deterministic egress-port path a flow from
// src to dst traverses, mirroring Switch.Receive's forwarding decision at
// every hop — including the ECMP hash pick on multipath route groups, so a
// flow-level model and the packet engine agree on which ports a given flow
// loads. It returns the extended buffer, and false when either endpoint is
// not a host or the path is unroutable. A caller that passes the returned
// buffer back, truncated, stops allocating once it holds the longest path.
func (n *Network) PathPorts(buf []*Port, src, dst packet.Addr) ([]*Port, bool) {
	srcHost, ok := n.Node(src.Node).(*Host)
	if !ok || srcHost.uplink == nil {
		return buf, false
	}
	path := append(buf, srcHost.uplink)
	cur := srcHost.uplink.peer
	// A leaf-spine fabric is at most host->leaf->spine->leaf->host; the hop
	// bound only guards against accidental routing loops.
	for hop := 0; hop < 8; hop++ {
		sw, ok := cur.(*Switch)
		if !ok {
			if h, isHost := cur.(*Host); isHost && h.id == dst.Node {
				return path, true
			}
			return path, false
		}
		g := sw.group(dst.Node)
		if g == nil {
			return path, false
		}
		// Mirror the congestion-aware reselection at the switch's own clock,
		// so a flow-level model resolves the same egress the packet engine
		// would forward on right now.
		p, _ := selectEgress(n.hashSeed, g, src, dst, sw.sh.eng.Now())
		path = append(path, p)
		cur = p.peer
	}
	return path, false
}
