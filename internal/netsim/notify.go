// notify.go implements switch-originated congestion notifications
// (DESIGN.md §2.8). When a tracked port's queue occupancy crosses a
// configured threshold, the switch emits one notification per episode: a
// control event delayed by the fabric's wire-delay constant that (a) marks
// the hot port — and the upstream egresses feeding its owner — so ECMP
// reselection steers new flows onto cold candidates for an affinity window,
// and (b) gates the injection rate of every source host observed crossing
// the hot queue, via a token-bucket throttle that decays back to line rate
// after a quiet period. All notifier state mutates exclusively in control
// context (globally-serialized events with every shard worker parked), so
// results are bit-identical at any shard or worker count.
package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

// NotifyConfig parameterizes the congestion notifier.
type NotifyConfig struct {
	// Threshold is the queue occupancy, in packets, at which a tracked port
	// emits a notification. Must be >= 1.
	Threshold int
	// Reroute enables congestion-aware ECMP reselection: flows hashed onto a
	// hot port re-salt onto a cold candidate of the same route group.
	Reroute bool
	// Throttle enables source injection gating: hosts whose packets cross a
	// hot queue have their uplink paced down, decaying back to line rate
	// after Quiet without further notifications.
	Throttle bool
	// Affinity is how long a hot marking lasts. Within one episode the
	// re-salt generation is fixed, so a given flow keeps one alternate path
	// — reselection cannot flap a flow between candidates packet by packet.
	Affinity units.Duration
	// Quiet is the throttle decay clock: a gated host doubles its rate every
	// Quiet after its last notification until it is back at line rate.
	Quiet units.Duration
	// Lag delays the notification control event by a fixed fabric constant
	// (the minimum core-link propagation delay — at least the shard group's
	// lookahead). An occupancy crossing observed inside a parallel window can
	// only become a control event at the next barrier, after shards raced up
	// to one lookahead past it; firing the notification at crossing+Lag makes
	// serial runs incur the identical delay, so results stay bit-identical at
	// any shard count. It doubles as the wire delay a real notification frame
	// would incur switch-to-source. Not a tuning knob: it is derived from the
	// fabric, not configured.
	Lag units.Duration
}

// Validate reports a parameter error, or nil.
func (c NotifyConfig) Validate() error {
	switch {
	case c.Threshold < 1:
		return fmt.Errorf("netsim: notify threshold %d must be >= 1 packet", c.Threshold)
	case !c.Reroute && !c.Throttle:
		return fmt.Errorf("netsim: notifier needs at least one mechanism (Reroute or Throttle)")
	case c.Affinity <= 0:
		return fmt.Errorf("netsim: notify affinity window %v must be positive", c.Affinity)
	case c.Quiet <= 0:
		return fmt.Errorf("netsim: notify quiet period %v must be positive", c.Quiet)
	case c.Lag < 0:
		return fmt.Errorf("netsim: notify lag must be non-negative, got %v", c.Lag)
	}
	return nil
}

// NotifyStats counts the notifier's lifecycle transitions. Every counter is
// mutated in control context except Rerouted, which is summed from per-port
// shard-owned counters when read.
type NotifyStats struct {
	Notifications uint64 // notification control events fired
	HotEpisodes   uint64 // cold -> hot port transitions
	Rerouted      uint64 // packets steered off a hot primary egress
	Throttles     uint64 // host gate halvings
	Recoveries    uint64 // hosts restored to line rate
}

// notifyPort is the notifier's view of one tracked egress port.
type notifyPort struct {
	port *Port
	// feeders are tracked switch egresses whose peer is this port's owner:
	// the upstream hops whose ECMP choice decides whether traffic reaches
	// this port at all. A hot spine->leaf down-port is invisible to the
	// remote leaves that loaded it, so the notification marks the feeders
	// too — steering new flows off the congested switch entirely.
	feeders []*Port

	// Episode state written by the owning shard during parallel windows (as
	// its observer) and read/reset in control context. The barrier protocol
	// parks every worker before a control event runs, so these cross the
	// goroutine boundary only through that synchronization.
	armed bool
	srcs  []packet.NodeID // senders seen crossing the hot queue, append order

	// nextArm rate-limits re-notification: written in control context, read
	// by the owning shard during windows (workers park before control runs).
	nextArm units.Time
}

// throttleHost is one gated source host. All fields mutate in control
// context; the live gate mirror lives on the host's uplink Port, read by the
// owning shard's transmitter between barriers.
type throttleHost struct {
	up   *Port
	line units.Bandwidth
	gate units.Bandwidth // 0 = line rate (no gate installed)
	// lastHit is the time of the latest notification that throttled this
	// host; the decay timer restarts its quiet clock from here.
	lastHit units.Time
	armed   bool // a decay timer is pending (invariant: armed iff gate != 0)
}

// minGateDiv bounds the throttle floor: the gate never drops below
// line rate / minGateDiv, so a persistently notified host keeps draining
// and the decay ladder back to line rate stays short (at most
// log2(minGateDiv) quiet periods).
const minGateDiv = 16

// Notifier implements switch-originated congestion notifications over a
// shard group. Build one per cluster with NewNotifier, Track every switch
// egress that can congest, RegisterHost every throttleable source, and
// subscribe it to the network (Network.Subscribe): it observes every
// enqueue verdict on the port's own shard.
type Notifier struct {
	g   *sim.Group
	net *Network
	cfg NotifyConfig

	tracked []*notifyPort
	hosts   map[packet.NodeID]*throttleHost

	stats NotifyStats
}

// NewNotifier builds a notifier over the group's control engine.
func NewNotifier(g *sim.Group, net *Network, cfg NotifyConfig) *Notifier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Notifier{g: g, net: net, cfg: cfg, hosts: make(map[packet.NodeID]*throttleHost)}
}

// Config returns the notifier's configuration.
func (n *Notifier) Config() NotifyConfig { return n.cfg }

// Stats returns a snapshot of the lifecycle counters. Call between runs or
// in control context; the per-port reroute counters are summed in tracked
// order, so the snapshot is deterministic.
func (n *Notifier) Stats() NotifyStats {
	s := n.stats
	for _, np := range n.tracked {
		s.Rerouted += np.port.rerouted
	}
	return s
}

// Track registers a switch egress with the notifier. Tracking wires the
// feeder relation in both directions against every previously tracked port,
// so registration order only affects internal slice order, never behaviour.
func (n *Notifier) Track(p *Port) {
	if p == nil || p.noti != nil {
		return
	}
	np := &notifyPort{port: p}
	p.noti = np
	for _, o := range n.tracked {
		if _, ok := o.port.owner.(*Switch); ok && o.port.peer == p.owner {
			np.feeders = append(np.feeders, o.port)
		}
		if _, ok := p.owner.(*Switch); ok && p.peer == o.port.owner {
			o.feeders = append(o.feeders, p)
		}
	}
	n.tracked = append(n.tracked, np)
}

// RegisterHost makes a host throttleable: notifications naming it as a
// source gate its uplink. The line rate is captured at registration.
func (n *Notifier) RegisterHost(h *Host) {
	if h == nil || h.uplink == nil {
		return
	}
	n.hosts[h.id] = &throttleHost{up: h.uplink, line: h.uplink.link.Rate}
}

// PacketEnqueued implements Observer: it sees every enqueue verdict on the
// port's own shard. If the port is tracked and its queue sits at or above
// the threshold, the packet's source is recorded for throttling and —
// unless a notification is already in flight or the episode is
// rate-limited — one notification control event is routed at now+Lag,
// ordered exactly where a serial engine would place it.
func (n *Notifier) PacketEnqueued(now units.Time, port *Port, pkt *packet.Packet, _ qdisc.Verdict) {
	np := port.noti
	if np == nil || port.queue.Len() < n.cfg.Threshold {
		return
	}
	if n.cfg.Throttle {
		src := pkt.Src.Node
		known := false
		for _, s := range np.srcs {
			if s == src {
				known = true
				break
			}
		}
		if !known {
			np.srcs = append(np.srcs, src)
		}
	}
	if np.armed || now < np.nextArm {
		return
	}
	np.armed = true
	sh := port.sh
	var lin sim.Lineage
	sh.eng.ChildLineage(&lin)
	n.g.ScheduleControl(sh.id, now.Add(n.cfg.Lag), lin, func() { n.fire(np) })
}

// PacketDelivered implements Observer; a delivery raises no notification.
func (n *Notifier) PacketDelivered(units.Time, *packet.Packet) {}

// fire is the notification control event: mark the hot port (and its
// feeders) for reselection, gate the recorded sources, and open the
// re-notification rate limit window.
func (n *Notifier) fire(np *notifyPort) {
	now := n.g.Ctrl().Now()
	np.armed = false
	// Rate-limit the next notification to half a quiet period out: fast
	// enough to extend a standing episode's affinity window, slow enough
	// that a saturated queue does not fire per packet.
	np.nextArm = now.Add(n.cfg.Quiet / 2)
	n.stats.Notifications++
	if n.cfg.Reroute {
		n.markHot(np.port, now)
		for _, f := range np.feeders {
			n.markHot(f, now)
		}
	}
	if n.cfg.Throttle {
		for _, src := range np.srcs {
			if th := n.hosts[src]; th != nil {
				n.throttleHit(th, now)
			}
		}
	}
	np.srcs = np.srcs[:0]
}

// markHot opens (or extends) a port's hot window. A cold port starting a new
// episode advances the re-salt generation; extensions keep it, so flows
// rerouted during the episode stay on their alternate path.
func (n *Notifier) markHot(p *Port, now units.Time) {
	if !p.hotAt(now) {
		p.hotGen++
		n.stats.HotEpisodes++
	}
	p.hotUntil = now.Add(n.cfg.Affinity)
}

// throttleHit halves a host's injection gate (floored at line/minGateDiv)
// and (re)starts its decay clock. Control context.
func (n *Notifier) throttleHit(th *throttleHost, now units.Time) {
	g := th.gate
	if g == 0 {
		g = th.line / 2
	} else {
		g /= 2
	}
	if floor := th.line / minGateDiv; g < floor {
		g = floor
	}
	th.gate = g
	th.up.gate = g
	th.lastHit = now
	n.stats.Throttles++
	if !th.armed {
		th.armed = true
		n.g.Ctrl().Schedule(now.Add(n.cfg.Quiet), func() { n.decay(th) })
	}
}

// decay is the throttle recovery event: after a full quiet period without a
// new hit the gate doubles, and once it reaches line rate the gate lifts.
// The timer stays armed exactly while a gate is installed, so a throttled
// host always returns to line rate in at most log2(minGateDiv)+1 quiet
// periods after its last notification.
func (n *Notifier) decay(th *throttleHost) {
	now := n.g.Ctrl().Now()
	if quietAt := th.lastHit.Add(n.cfg.Quiet); now < quietAt {
		// Hit again since this timer was armed: wait out the rest of the
		// new quiet window.
		n.g.Ctrl().Schedule(quietAt, func() { n.decay(th) })
		return
	}
	g := th.gate * 2
	if g >= th.line {
		th.gate = 0
		th.up.gate = 0
		th.armed = false
		n.stats.Recoveries++
		return
	}
	th.gate = g
	th.up.gate = g
	n.g.Ctrl().Schedule(now.Add(n.cfg.Quiet), func() { n.decay(th) })
}
