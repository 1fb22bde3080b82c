// fluid.go is the flow-level half of the hybrid fluid/packet engine
// (DESIGN.md §2.7). Transfers admitted into the fluid model never emit
// packets: each one is a rate on the ports of its resolved path, its
// completion a single control-engine event computed from max-min
// share-of-bottleneck math. Ports stay fluid only while uncontended — a port
// whose allocated fluid load crosses the utilization threshold, or that
// observes an AQM mark or drop, promotes every fluid flow traversing it to
// packet level and refuses fluid admissions until a hysteresis window of
// quiet has passed. All controller state mutates exclusively in control
// context (globally-serialized events with every shard worker parked), so
// results are bit-identical at any shard or worker count.
package flow

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

// FluidConfig parameterizes the hybrid controller.
type FluidConfig struct {
	// Threshold is the fluid utilization threshold u in [0, 1]: a port whose
	// allocated fluid load reaches u x link rate is congested and promotes.
	// 0 disables the fluid model entirely (every transfer runs at packet
	// level — the exactness mode).
	Threshold float64
	// Hysteresis is the quiet window: a promoted port demotes back to fluid
	// only after this much time without an AQM mark or drop, and a port with
	// an AQM event within the window refuses fluid admissions.
	Hysteresis units.Duration
	// Lag delays the AQM-promotion control event by a fixed fabric constant
	// (the minimum core-link propagation delay — at least the shard group's
	// lookahead). A mark observed inside a parallel window can only become a
	// control event at the next barrier, after shards raced up to one
	// lookahead past it; firing the promotion at mark+Lag makes serial runs
	// incur the identical delay, so results stay bit-identical at any shard
	// count. Not a tuning knob: it is derived from the fabric, not configured.
	Lag units.Duration
}

// Validate reports a parameter error, or nil.
func (c FluidConfig) Validate() error {
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("flow: fluid threshold %g out of range [0, 1]", c.Threshold)
	}
	if c.Threshold > 0 && c.Hysteresis <= 0 {
		return fmt.Errorf("flow: fluid model needs a positive promote hysteresis, got %v", c.Hysteresis)
	}
	if c.Lag < 0 {
		return fmt.Errorf("flow: fluid promotion lag must be non-negative, got %v", c.Lag)
	}
	return nil
}

// FluidStats counts the controller's lifecycle transitions.
type FluidStats struct {
	FluidStarted   uint64         // transfers admitted into the fluid model
	FluidCompleted uint64         // transfers completed fluidly end to end
	FluidBytes     units.ByteSize // bytes carried fluidly (incl. settled portion of promoted flows)
	PacketRefused  uint64         // admissions refused to the packet path
	Promotions     uint64         // port fluid -> packet transitions
	Demotions      uint64         // port packet -> fluid transitions
	PromotedFlows  uint64         // fluid flows converted to packet mid-flight
}

// TraceKind labels one controller transition for the OnTrace hook.
type TraceKind uint8

// Trace kinds.
const (
	TraceAdmit       TraceKind = iota // a transfer entered the fluid model
	TraceComplete                     // a fluid transfer completed
	TraceAQM                          // an AQM mark/drop was observed on a tracked port
	TracePromote                      // a port entered packet mode
	TracePromoteFlow                  // a fluid flow was converted to packet level
	TraceDemote                       // a port returned to fluid mode
)

// TraceEvent is one OnTrace observation. Path is the flow's port path for
// admit/complete/promote-flow events; Port is the port for AQM/promote/demote
// events.
type TraceEvent struct {
	Kind TraceKind
	At   units.Time
	Port *netsim.Port
	Path []*netsim.Port
}

// fluidFlow is one transfer inside the fluid model.
type fluidFlow struct {
	src, dst   packet.Addr
	size       units.ByteSize
	demand     float64 // bits/sec the application would drive at most
	remaining  float64 // bytes left at lastUpdate
	rate       float64 // bits/sec currently allocated
	lastUpdate units.Time
	path       []*fluidPort
	onComplete func()
	onPromote  func(remaining units.ByteSize)
	ev         sim.Event
	done       bool
	fixed      bool // solver scratch

	// hops backs path inside the flow's own allocation. Every fabric the
	// builders make resolves paths of at most four ports; a longer path
	// spills to an array of its own.
	hops [4]*fluidPort
}

// fluidPort is the controller's view of one tracked egress port.
type fluidPort struct {
	port    *netsim.Port
	capBits float64 // full link rate, bits/sec

	// Control-context state: mutated only inside globally-serialized events.
	flows         []*fluidFlow
	packetMode    bool
	promotedAt    units.Time
	demotePending bool

	// Episode state written by the owning shard during parallel windows (as
	// its observer) and read/reset in control context. The barrier protocol
	// parks every worker before a control event runs, so these cross the
	// goroutine boundary only through that synchronization.
	aqmSeen  bool
	aqmLast  units.Time
	reported bool // a promotion control event is already in flight

	// hasFluid mirrors len(flows) > 0 for the shard-side observer: written
	// only in control context, read by the owning shard during windows.
	hasFluid bool

	// alloc is the fluid rate allocated on the port. In the fast regime it
	// is the sum of the port's flow demands, added in flows order from zero
	// exactly as the solve adds them; an empty port holds 0.
	alloc float64

	// Solver scratch.
	inSolve  bool
	residual float64
	nActive  int
}

// Fluid is the hybrid fluid/packet controller. Build one per cluster with
// NewFluid, Track every port the fluid model may load, and offer transfers
// through StartFlow; refused transfers run on the packet engine unchanged.
type Fluid struct {
	g   *sim.Group
	net *netsim.Network
	cfg FluidConfig

	ports  map[*netsim.Port]*fluidPort
	flows  []*fluidFlow
	active []*fluidPort // the ports the last full solve loaded

	// fast marks the fast regime: every flow runs at its demand, and no
	// loaded port is tight (its first-pass share capBits/len(flows) below
	// maxDemand) or at the threshold. While it holds, the full solve would
	// fix every flow at its demand in its first pass, so admissions and
	// removals update only the changed flow's path. Only full solves enter
	// it; a withdrawal puts back the regime its offer found.
	fast      bool
	maxDemand float64 // the largest demand among fluid flows
	nMax      int     // how many fluid flows have demand maxDemand

	// StartFlow's path scratch: the resolved fabric ports, then the
	// controller's view of them.
	hopBuf  []*netsim.Port
	pathBuf []*fluidPort

	// What a solved admission saves so that a withdrawn newcomer restores
	// it instead of solving again: the regime, each standing flow's rate,
	// and the allocation of every port on each standing flow's path, in
	// that visiting order.
	savedFast   bool
	savedRates  []float64
	savedAllocs []float64

	// completeArg is complete as an event callback, built once so that
	// scheduling a completion allocates nothing.
	completeArg func(any)

	// OnDelivered, if set, credits fluid-delivered payload bytes — the
	// cluster wires the metrics collector here so throughput accounting sees
	// fluid bytes next to packet deliveries.
	OnDelivered func(dst packet.NodeID, bytes units.ByteSize)

	// OnTrace, if set, observes controller transitions. TraceAQM fires in
	// shard context; install a trace only on serial (Shards(1)) runs.
	OnTrace func(ev TraceEvent)

	stats FluidStats
}

// NewFluid builds a controller over the group's control engine. A zero
// threshold yields an always-packet controller: StartFlow refuses every
// transfer and no port tracking is needed.
func NewFluid(g *sim.Group, net *netsim.Network, cfg FluidConfig) *Fluid {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fluid{g: g, net: net, cfg: cfg, ports: make(map[*netsim.Port]*fluidPort), fast: true}
	f.completeArg = func(fl any) { f.complete(fl.(*fluidFlow)) }
	return f
}

// Active reports whether the fluid model can ever admit a transfer.
func (f *Fluid) Active() bool { return f != nil && f.cfg.Threshold > 0 }

// Config returns the controller's configuration.
func (f *Fluid) Config() FluidConfig { return f.cfg }

// Stats returns a snapshot of the lifecycle counters (control context).
func (f *Fluid) Stats() FluidStats { return f.stats }

// ActiveFlows returns the number of transfers currently in the fluid model
// (control context).
func (f *Fluid) ActiveFlows() int { return len(f.flows) }

// Track registers a port with the fluid model. Untracked ports on a
// transfer's path force the transfer to packet level, so clusters track
// every port a flow can traverse.
func (f *Fluid) Track(p *netsim.Port) {
	if !f.Active() || p == nil {
		return
	}
	if _, ok := f.ports[p]; ok {
		return
	}
	f.ports[p] = &fluidPort{port: p, capBits: float64(p.Link().Rate)}
}

// StartFlow offers a transfer of size bytes from src to dst to the fluid
// model, with demand the most the application would drive through it. It
// returns false when the transfer must run at packet level instead: the
// controller is nil or disabled, the path is unresolvable or partly
// untracked, a path port is promoted or inside an AQM episode, or admitting
// the transfer would push a path port over the utilization threshold.
//
// On fluid admission, onComplete fires as a single control event at the
// transfer's computed completion time. If a path port promotes first,
// onPromote fires instead (control context) with the bytes still outstanding;
// the caller restarts those at packet level. Must be called in control
// context.
func (f *Fluid) StartFlow(src, dst packet.Addr, size units.ByteSize, demand units.Bandwidth,
	onComplete func(), onPromote func(remaining units.ByteSize)) bool {
	if !f.Active() {
		return false
	}
	if size <= 0 || demand <= 0 {
		panic(fmt.Sprintf("flow: fluid transfer needs positive size and demand, got %v / %v", size, demand))
	}
	if onComplete == nil || onPromote == nil {
		panic("flow: fluid transfer needs onComplete and onPromote callbacks")
	}
	now := f.g.Ctrl().Now()
	var ok bool
	f.hopBuf, ok = f.net.PathPorts(f.hopBuf[:0], src, dst)
	if !ok {
		f.stats.PacketRefused++
		return false
	}
	f.pathBuf = f.pathBuf[:0]
	for _, p := range f.hopBuf {
		fp := f.ports[p]
		if fp == nil || fp.packetMode || f.episodeActive(fp, now) {
			f.stats.PacketRefused++
			return false
		}
		f.pathBuf = append(f.pathBuf, fp)
	}
	f.settle(now)
	fl := &fluidFlow{
		src: src, dst: dst, size: size,
		demand: float64(demand), remaining: float64(size), lastUpdate: now,
		onComplete: onComplete, onPromote: onPromote,
	}
	fl.path = append(fl.hops[:0], f.pathBuf...)
	// A newcomer whose demand is within the largest cannot make a port off
	// its path tight, so if none on its path turns tight either, the solve
	// would fix every flow at its demand in its first pass.
	fast := f.fast && fl.demand <= f.maxDemand && f.roomFor(fl.path)
	if !fast {
		f.save()
	}
	f.attach(fl)
	if fast {
		fl.rate = fl.demand
		for _, fp := range fl.path {
			fp.alloc += fl.demand
		}
	} else {
		f.solve()
	}
	if f.overThreshold(fl.path) {
		// The newcomer would congest its own path: withdraw it to the packet
		// engine. On the fast path detach's re-sums are the whole undo; a
		// solved admission puts back the rates and allocations it saved.
		// reschedule still re-times every standing flow whose completion
		// time settle's rounding moved.
		f.detach(fl)
		if !fast {
			f.restore()
		}
		f.reschedule(now)
		f.stats.PacketRefused++
		return false
	}
	f.stats.FluidStarted++
	f.reschedule(now)
	f.tracePath(TraceAdmit, now, fl)
	return true
}

// roomFor reports whether one more flow leaves every port of path with a
// first-pass share of at least the largest demand, computed as the solve
// computes it.
func (f *Fluid) roomFor(path []*fluidPort) bool {
	for _, fp := range path {
		if fp.capBits/float64(len(fp.flows)+1) < f.maxDemand {
			return false
		}
	}
	return true
}

// save records what a solved admission may overwrite. A port on several
// paths is saved at each visit, and restoring it writes the same value each
// time. A newcomer's port that no standing flow loads needs no saving:
// detaching the newcomer leaves it at 0, as it was.
func (f *Fluid) save() {
	f.savedFast = f.fast
	f.savedRates = f.savedRates[:0]
	f.savedAllocs = f.savedAllocs[:0]
	for _, fl := range f.flows {
		f.savedRates = append(f.savedRates, fl.rate)
		for _, fp := range fl.path {
			f.savedAllocs = append(f.savedAllocs, fp.alloc)
		}
	}
}

// restore puts back what save recorded, once the newcomer is detached and
// the flow set is the saved one again.
func (f *Fluid) restore() {
	f.fast = f.savedFast
	k := 0
	for i, fl := range f.flows {
		fl.rate = f.savedRates[i]
		for _, fp := range fl.path {
			fp.alloc = f.savedAllocs[k]
			k++
		}
	}
}

// PacketEnqueued implements netsim.Observer: it records an AQM mark or drop
// on a tracked port, in the port's own shard context. It updates the port's
// episode clock and, if fluid flows currently traverse the port, routes
// exactly one promotion control event at the mark's own timestamp —
// heap-ordered before any later fluid completion, so no fluid flow outlives
// the episode's start.
func (f *Fluid) PacketEnqueued(now units.Time, port *netsim.Port, _ *packet.Packet, v qdisc.Verdict) {
	if v == qdisc.Enqueued {
		return
	}
	fp := f.ports[port]
	if fp == nil {
		return
	}
	fp.aqmSeen = true
	fp.aqmLast = now
	f.trace(TraceEvent{Kind: TraceAQM, At: now, Port: port})
	if fp.reported || !fp.hasFluid {
		return
	}
	fp.reported = true
	sh := port.Shard()
	var lin sim.Lineage
	sh.Eng().ChildLineage(&lin)
	f.g.ScheduleControl(sh.ID(), now.Add(f.cfg.Lag), lin, func() { f.aqmPromote(fp) })
}

// PacketDelivered implements netsim.Observer; deliveries do not concern the
// controller.
func (f *Fluid) PacketDelivered(units.Time, *packet.Packet) {}

// episodeActive reports whether the port saw an AQM event within the
// hysteresis window (control context; the shard-written clock is stable
// because every worker is parked).
func (f *Fluid) episodeActive(fp *fluidPort, now units.Time) bool {
	return fp.aqmSeen && now.Sub(fp.aqmLast) < f.cfg.Hysteresis
}

// aqmPromote is the control event PacketEnqueued routes.
func (f *Fluid) aqmPromote(fp *fluidPort) {
	fp.reported = false
	now := f.g.Ctrl().Now()
	f.settle(now)
	f.enterPacket(fp, now)
	f.rebalance(now)
}

// settle advances every fluid flow's remaining bytes to now at its current
// rate. Every mutation of the flow set must settle first so rate changes
// apply only forward in time.
func (f *Fluid) settle(now units.Time) {
	for _, fl := range f.flows {
		if dt := now.Sub(fl.lastUpdate); dt > 0 {
			fl.remaining -= fl.rate / 8 * dt.Seconds()
			if fl.remaining < 0 {
				fl.remaining = 0
			}
			fl.lastUpdate = now
		}
	}
}

// attach registers a flow on its path.
func (f *Fluid) attach(fl *fluidFlow) {
	f.flows = append(f.flows, fl)
	for _, fp := range fl.path {
		fp.flows = append(fp.flows, fl)
		fp.hasFluid = true
	}
	f.noteDemand(fl.demand)
}

// noteDemand folds one flow's demand into the largest-demand tally.
func (f *Fluid) noteDemand(d float64) {
	switch {
	case d > f.maxDemand:
		f.maxDemand, f.nMax = d, 1
	case d == f.maxDemand:
		f.nMax++
	}
}

// detach removes a flow from the controller, preserving slice order so the
// solver's float accumulation sequence stays deterministic. Each path port's
// allocation is re-summed from zero over its remaining flows' demands, never
// subtracted, so in the fast regime it stays bit-equal to the solve's; out of
// it, the solve or restore that follows every removal overwrites the loaded
// ports, and an emptied port holds 0.
func (f *Fluid) detach(fl *fluidFlow) {
	for i, x := range f.flows {
		if x == fl {
			f.flows = append(f.flows[:i], f.flows[i+1:]...)
			break
		}
	}
	for _, fp := range fl.path {
		for i, x := range fp.flows {
			if x == fl {
				fp.flows = append(fp.flows[:i], fp.flows[i+1:]...)
				break
			}
		}
		fp.hasFluid = len(fp.flows) > 0
		fp.alloc = 0
		for _, x := range fp.flows {
			fp.alloc += x.demand
		}
	}
	if fl.demand == f.maxDemand {
		if f.nMax--; f.nMax == 0 {
			f.maxDemand = 0
			for _, x := range f.flows {
				f.noteDemand(x.demand)
			}
		}
	}
}

// solve runs the full solve and enters the fast regime when no port it
// loaded is tight, so its first pass fixed every flow at its demand, and none
// is at the threshold. A solved StartFlow checks only the newcomer's path
// against the threshold, so a port off that path may sit over it.
func (f *Fluid) solve() {
	f.solveRates()
	f.fast = true
	for _, fp := range f.active {
		if fp.capBits/float64(len(fp.flows)) < f.maxDemand || fp.alloc >= f.cfg.Threshold*fp.capBits {
			f.fast = false
			return
		}
	}
}

// solveRates runs progressive filling (max-min fairness with per-flow demand
// caps) over the active flows: repeatedly compute the global bottleneck fair
// share, fix every demand-limited flow below it, otherwise saturate the
// bottleneck ports at that share. Iteration order is slice order throughout,
// so allocations are bit-deterministic in the flow history.
func (f *Fluid) solveRates() {
	f.active = f.active[:0]
	unfixed := 0
	for _, fl := range f.flows {
		fl.fixed = false
		unfixed++
		for _, fp := range fl.path {
			if !fp.inSolve {
				fp.inSolve = true
				fp.residual = fp.capBits
				fp.nActive = 0
				fp.alloc = 0
				f.active = append(f.active, fp)
			}
			fp.nActive++
		}
	}
	for unfixed > 0 {
		share := math.Inf(1)
		for _, fp := range f.active {
			if fp.nActive > 0 {
				if s := fp.residual / float64(fp.nActive); s < share {
					share = s
				}
			}
		}
		fixedAny := false
		for _, fl := range f.flows {
			if fl.fixed || fl.demand > share {
				continue
			}
			f.fixFlow(fl, fl.demand)
			unfixed--
			fixedAny = true
		}
		if fixedAny {
			continue
		}
		for _, fl := range f.flows {
			if fl.fixed {
				continue
			}
			bottlenecked := false
			for _, fp := range fl.path {
				if fp.nActive > 0 && fp.residual/float64(fp.nActive) <= share {
					bottlenecked = true
					break
				}
			}
			if bottlenecked {
				f.fixFlow(fl, share)
				unfixed--
			}
		}
	}
	for _, fp := range f.active {
		fp.inSolve = false
	}
}

// fixFlow finalizes one flow's allocation for this solve.
func (f *Fluid) fixFlow(fl *fluidFlow, rate float64) {
	fl.fixed = true
	fl.rate = rate
	for _, fp := range fl.path {
		fp.residual -= rate
		if fp.residual < 0 {
			fp.residual = 0
		}
		fp.nActive--
		fp.alloc += rate
	}
}

// overThreshold reports whether any port of the path is at or above the
// utilization threshold under the current solve.
func (f *Fluid) overThreshold(path []*fluidPort) bool {
	for _, fp := range path {
		if fp.alloc >= f.cfg.Threshold*fp.capBits {
			return true
		}
	}
	return false
}

// reschedule re-times every flow's completion event after a rate change.
// Unchanged completion times keep their scheduled event, so a solve that
// reproduces the previous allocation is free of heap churn.
func (f *Fluid) reschedule(now units.Time) {
	ctrl := f.g.Ctrl()
	for _, fl := range f.flows {
		secs := fl.remaining * 8 / fl.rate
		at := now.Add(units.Duration(secs * float64(units.Second)))
		if at < now {
			at = now
		}
		if fl.ev.Pending() && fl.ev.At() == at {
			continue
		}
		ctrl.Cancel(fl.ev)
		fl.ev = ctrl.ScheduleArg(at, f.completeArg, fl)
	}
}

// complete finishes one fluid transfer: credit its bytes, rebalance the
// survivors (promoting any port the freed capacity pushes over threshold),
// then hand the completion to the application.
func (f *Fluid) complete(fl *fluidFlow) {
	if fl.done {
		return
	}
	now := f.g.Ctrl().Now()
	f.settle(now)
	fl.done = true
	f.detach(fl)
	f.stats.FluidCompleted++
	f.stats.FluidBytes += fl.size
	if f.OnDelivered != nil {
		f.OnDelivered(fl.dst.Node, fl.size)
	}
	f.tracePath(TraceComplete, now, fl)
	f.rebalance(now)
	fl.onComplete()
}

// rebalance re-solves after a membership change and promotes every port the
// new allocation pushes over the threshold, iterating to a fixpoint (a
// promotion removes flows, which can redirect capacity onto further ports).
// A removal leaves the fast regime in force: flow counts and demand sums
// only fall, so no port turns tight or reaches the threshold, and there is
// nothing to solve or promote. Callers settle first.
func (f *Fluid) rebalance(now units.Time) {
	for !f.fast {
		f.solve()
		var over []*fluidPort
		for _, fp := range f.active {
			if fp.alloc >= f.cfg.Threshold*fp.capBits {
				over = append(over, fp)
			}
		}
		if len(over) == 0 {
			break
		}
		for _, fp := range over {
			f.enterPacket(fp, now)
		}
	}
	f.reschedule(now)
}

// enterPacket puts a port in packet mode and converts every fluid flow
// traversing it. Callers settle first and rebalance after.
func (f *Fluid) enterPacket(fp *fluidPort, now units.Time) {
	if !fp.packetMode {
		fp.packetMode = true
		f.stats.Promotions++
		f.trace(TraceEvent{Kind: TracePromote, At: now, Port: fp.port})
	}
	fp.promotedAt = now
	for len(fp.flows) > 0 {
		f.promoteFlow(fp.flows[len(fp.flows)-1], now)
	}
	f.armDemote(fp, now)
}

// promoteFlow converts one fluid flow to packet level: settle its fluid
// progress, then hand the outstanding bytes to the application's onPromote.
// A flow with less than a byte outstanding completes instead.
func (f *Fluid) promoteFlow(fl *fluidFlow, now units.Time) {
	fl.done = true
	f.g.Ctrl().Cancel(fl.ev)
	f.detach(fl)
	outstanding := units.ByteSize(math.Ceil(fl.remaining))
	if outstanding < 1 {
		f.stats.FluidCompleted++
		f.stats.FluidBytes += fl.size
		if f.OnDelivered != nil {
			f.OnDelivered(fl.dst.Node, fl.size)
		}
		f.tracePath(TraceComplete, now, fl)
		fl.onComplete()
		return
	}
	carried := fl.size - outstanding
	if carried > 0 {
		f.stats.FluidBytes += carried
		if f.OnDelivered != nil {
			f.OnDelivered(fl.dst.Node, carried)
		}
	}
	f.stats.PromotedFlows++
	f.tracePath(TracePromoteFlow, now, fl)
	fl.onPromote(outstanding)
}

// armDemote schedules the port's demotion check one hysteresis past now.
func (f *Fluid) armDemote(fp *fluidPort, now units.Time) {
	if fp.demotePending {
		return
	}
	fp.demotePending = true
	f.g.Ctrl().Schedule(now.Add(f.cfg.Hysteresis), func() { f.tryDemote(fp) })
}

// tryDemote returns the port to fluid mode once a full hysteresis window has
// passed without AQM activity, re-arming itself otherwise.
func (f *Fluid) tryDemote(fp *fluidPort) {
	fp.demotePending = false
	if !fp.packetMode {
		return
	}
	now := f.g.Ctrl().Now()
	quiet := fp.promotedAt
	if fp.aqmSeen && fp.aqmLast > quiet {
		quiet = fp.aqmLast
	}
	if now.Sub(quiet) >= f.cfg.Hysteresis {
		fp.packetMode = false
		f.stats.Demotions++
		f.trace(TraceEvent{Kind: TraceDemote, At: now, Port: fp.port})
		return
	}
	fp.demotePending = true
	f.g.Ctrl().Schedule(quiet.Add(f.cfg.Hysteresis), func() { f.tryDemote(fp) })
}

// trace emits one OnTrace observation.
func (f *Fluid) trace(ev TraceEvent) {
	if f.OnTrace != nil {
		f.OnTrace(ev)
	}
}

// tracePath emits a flow-scoped observation carrying the flow's port path.
func (f *Fluid) tracePath(kind TraceKind, now units.Time, fl *fluidFlow) {
	if f.OnTrace == nil {
		return
	}
	ports := make([]*netsim.Port, len(fl.path))
	for i, fp := range fl.path {
		ports[i] = fp.port
	}
	f.OnTrace(TraceEvent{Kind: kind, At: now, Path: ports})
}
