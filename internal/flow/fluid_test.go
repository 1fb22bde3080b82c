package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/units"
)

// fluidFixture is a leaf-spine fabric whose every port the controller
// tracks.
type fluidFixture struct {
	eng   *sim.Engine
	tc    *topo.Cluster
	f     *Fluid
	ports []*fluidPort // every tracked port, in build order
}

func newFluidFixture(tb testing.TB, cfg topo.Config) *fluidFixture {
	tb.Helper()
	eng := sim.New()
	cfg.SwitchQueue = func(string, units.Bandwidth) qdisc.Qdisc { return qdisc.NewDropTail(100) }
	tc := topo.Build(eng, cfg)
	f := NewFluid(sim.NewGroup([]*sim.Engine{eng}, 0), tc.Net, FluidConfig{
		Threshold:  0.9,
		Hysteresis: units.Millisecond,
	})
	x := &fluidFixture{eng: eng, tc: tc, f: f}
	var all []*netsim.Port
	for _, h := range tc.Hosts {
		all = append(all, h.Uplink())
	}
	all = append(all, tc.EdgePorts...)
	all = append(all, tc.CorePorts...)
	for _, p := range all {
		f.Track(p)
		x.ports = append(x.ports, f.ports[p])
	}
	return x
}

func (x *fluidFixture) addr(host int, port uint16) packet.Addr {
	return packet.Addr{Node: x.tc.Hosts[host].ID(), Port: port}
}

// refFluid is the controller's membership logic as it ran before the fast
// path, over its own copy of that max-min solve: every admission,
// completion and promotion re-solves every flow, and a withdrawn newcomer
// re-solves once more. It keeps only what the solve reads and writes.
type refFluid struct {
	threshold float64
	flows     []*refFlow
	active    []*refPort
	promoted  []*refPort
	stats     FluidStats
}

type refFlow struct {
	demand, rate float64
	fixed        bool
	path         []*refPort
}

type refPort struct {
	capBits  float64
	flows    []*refFlow
	packet   bool
	inSolve  bool
	residual float64
	nActive  int
	alloc    float64
}

func (r *refFluid) start(path []*refPort, demand float64) bool {
	for _, rp := range path {
		if rp.packet {
			r.stats.PacketRefused++
			return false
		}
	}
	fl := &refFlow{demand: demand, path: path}
	r.attach(fl)
	r.solve()
	for _, rp := range path {
		if rp.alloc >= r.threshold*rp.capBits {
			r.detach(fl)
			r.solve()
			r.stats.PacketRefused++
			return false
		}
	}
	r.stats.FluidStarted++
	return true
}

func (r *refFluid) complete(fl *refFlow) {
	r.detach(fl)
	r.stats.FluidCompleted++
	r.rebalance()
}

func (r *refFluid) aqmPromote(rp *refPort) {
	r.enterPacket(rp)
	r.rebalance()
}

func (r *refFluid) rebalance() {
	for {
		r.solve()
		var over []*refPort
		for _, rp := range r.active {
			if rp.alloc >= r.threshold*rp.capBits {
				over = append(over, rp)
			}
		}
		if len(over) == 0 {
			return
		}
		for _, rp := range over {
			r.enterPacket(rp)
		}
	}
}

func (r *refFluid) enterPacket(rp *refPort) {
	if !rp.packet {
		rp.packet = true
		r.stats.Promotions++
		r.promoted = append(r.promoted, rp)
	}
	for len(rp.flows) > 0 {
		r.detach(rp.flows[len(rp.flows)-1])
		r.stats.PromotedFlows++
	}
}

func (r *refFluid) attach(fl *refFlow) {
	r.flows = append(r.flows, fl)
	for _, rp := range fl.path {
		rp.flows = append(rp.flows, fl)
	}
}

func (r *refFluid) detach(fl *refFlow) {
	for i, x := range r.flows {
		if x == fl {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			break
		}
	}
	for _, rp := range fl.path {
		for i, x := range rp.flows {
			if x == fl {
				rp.flows = append(rp.flows[:i], rp.flows[i+1:]...)
				break
			}
		}
	}
}

// solve is the progressive-filling solve, statement for statement.
func (r *refFluid) solve() {
	r.active = r.active[:0]
	unfixed := 0
	for _, fl := range r.flows {
		fl.fixed = false
		unfixed++
		for _, rp := range fl.path {
			if !rp.inSolve {
				rp.inSolve = true
				rp.residual = rp.capBits
				rp.nActive = 0
				rp.alloc = 0
				r.active = append(r.active, rp)
			}
			rp.nActive++
		}
	}
	for unfixed > 0 {
		share := math.Inf(1)
		for _, rp := range r.active {
			if rp.nActive > 0 {
				if s := rp.residual / float64(rp.nActive); s < share {
					share = s
				}
			}
		}
		fixedAny := false
		for _, fl := range r.flows {
			if fl.fixed || fl.demand > share {
				continue
			}
			r.fix(fl, fl.demand)
			unfixed--
			fixedAny = true
		}
		if fixedAny {
			continue
		}
		for _, fl := range r.flows {
			if fl.fixed {
				continue
			}
			bottlenecked := false
			for _, rp := range fl.path {
				if rp.nActive > 0 && rp.residual/float64(rp.nActive) <= share {
					bottlenecked = true
					break
				}
			}
			if bottlenecked {
				r.fix(fl, share)
				unfixed--
			}
		}
	}
	for _, rp := range r.active {
		rp.inSolve = false
	}
}

func (r *refFluid) fix(fl *refFlow, rate float64) {
	fl.fixed = true
	fl.rate = rate
	for _, rp := range fl.path {
		rp.residual -= rate
		if rp.residual < 0 {
			rp.residual = 0
		}
		rp.nActive--
		rp.alloc += rate
	}
}

// diffHarness applies each operation to the controller and to refFluid,
// then compares every flow's rate and every loaded port's allocation bit for
// bit, the promoted ports in order, and the lifecycle counters.
type diffHarness struct {
	t        *testing.T
	x        *fluidFixture
	ref      *refFluid
	refOf    map[*fluidPort]*refPort
	promoted []*fluidPort
	seq      uint16
}

// newDiffHarness builds 32 hosts over 4 racks and 2 spines at
// oversubscription 3, so host and core ports differ in capacity and every
// core port is shared by many paths.
func newDiffHarness(t *testing.T, rate units.Bandwidth) *diffHarness {
	x := newFluidFixture(t, topo.Config{
		Nodes: 32, Racks: 4, Spines: 2, Oversub: 3,
		LinkRate: rate, LinkDelay: units.Microsecond,
	})
	h := &diffHarness{
		t:     t,
		x:     x,
		ref:   &refFluid{threshold: x.f.cfg.Threshold},
		refOf: make(map[*fluidPort]*refPort, len(x.ports)),
	}
	for _, fp := range x.ports {
		h.refOf[fp] = &refPort{capBits: fp.capBits}
	}
	x.f.OnTrace = func(ev TraceEvent) {
		if ev.Kind == TracePromote {
			h.promoted = append(h.promoted, x.f.ports[ev.Port])
		}
	}
	return h
}

func (h *diffHarness) admit(src, dst int, demand units.Bandwidth) bool {
	h.t.Helper()
	f := h.x.f
	h.seq++
	s, d := h.x.addr(src, 0x8000|h.seq&0x7fff), h.x.addr(dst, 9000)
	hops, ok := h.x.tc.Net.PathPorts(nil, s, d)
	if !ok {
		h.t.Fatalf("no path %d -> %d", src, dst)
	}
	path := make([]*refPort, len(hops))
	for i, p := range hops {
		path[i] = h.refOf[f.ports[p]]
	}
	got := f.StartFlow(s, d, units.MiB, demand, func() {}, func(units.ByteSize) {})
	if want := h.ref.start(path, float64(demand)); got != want {
		h.t.Fatalf("admission of %d bits/s %d -> %d: controller %v, full solve %v", demand, src, dst, got, want)
	}
	return got
}

func (h *diffHarness) complete(i int) {
	h.x.f.complete(h.x.f.flows[i])
	h.ref.complete(h.ref.flows[i])
}

func (h *diffHarness) aqm(fp *fluidPort) {
	h.x.f.aqmPromote(fp)
	h.ref.aqmPromote(h.refOf[fp])
}

// demoteAll lets the hysteresis window pass for every promoted port.
func (h *diffHarness) demoteAll() {
	for _, fp := range h.x.ports {
		fp.packetMode = false
		h.refOf[fp].packet = false
	}
}

func (h *diffHarness) check(step int, op string) {
	h.t.Helper()
	f, ref := h.x.f, h.ref
	fail := func(format string, args ...any) {
		h.t.Helper()
		h.t.Fatalf("step %d (%s): "+format, append([]any{step, op}, args...)...)
	}
	if len(f.flows) != len(ref.flows) {
		fail("%d flows, full solve has %d", len(f.flows), len(ref.flows))
	}
	for i, fl := range f.flows {
		rf := ref.flows[i]
		if fl.demand != rf.demand {
			fail("flow %d demand %v, full solve's flow has %v", i, fl.demand, rf.demand)
		}
		if math.Float64bits(fl.rate) != math.Float64bits(rf.rate) {
			fail("flow %d rate %v, full solve %v", i, fl.rate, rf.rate)
		}
	}
	for i, fp := range h.x.ports {
		rp := h.refOf[fp]
		if len(fp.flows) != len(rp.flows) || fp.packetMode != rp.packet {
			fail("port %d: %d flows (packet %v), full solve %d (packet %v)",
				i, len(fp.flows), fp.packetMode, len(rp.flows), rp.packet)
		}
		if len(fp.flows) > 0 && math.Float64bits(fp.alloc) != math.Float64bits(rp.alloc) {
			fail("port %d alloc %v, full solve %v", i, fp.alloc, rp.alloc)
		}
	}
	if len(h.promoted) != len(ref.promoted) {
		fail("%d promotions, full solve %d", len(h.promoted), len(ref.promoted))
	}
	for i, fp := range h.promoted {
		if h.refOf[fp] != ref.promoted[i] {
			fail("promotion %d is a different port", i)
		}
	}
	got, want := f.Stats(), ref.stats
	if got.FluidStarted != want.FluidStarted || got.FluidCompleted != want.FluidCompleted ||
		got.PacketRefused != want.PacketRefused || got.Promotions != want.Promotions ||
		got.PromotedFlows != want.PromotedFlows {
		fail("stats %+v, full solve %+v", got, want)
	}
}

// TestFluidMatchesFullSolve runs the controller beside refFluid over seeded
// histories of admissions (withdrawn full-rate newcomers among them),
// completions, AQM promotions and demotions, checking after every operation.
//
// Rates are whole bits/sec, and sums of integers below 2^53 are exact in any
// order. The 10^17 bits/s fabric puts demand sums above 2^53, where every
// addition rounds, so an allocation summed in any order but the solve's
// shows there.
func TestFluidMatchesFullSolve(t *testing.T) {
	for _, rate := range []units.Bandwidth{10 * units.Gbps, 1e17} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("rate=%d/seed=%d", rate, seed), func(t *testing.T) {
				runDifferential(t, rate, seed, 3000)
			})
		}
	}
	t.Run("raised-largest-demand", testRaisedLargestDemand)
}

func runDifferential(t *testing.T, rate units.Bandwidth, seed int64, steps int) {
	h := newDiffHarness(t, rate)
	f := h.x.f
	rng := rand.New(rand.NewSource(seed))
	link := float64(rate)
	// demand draws from classes several magnitudes apart. The fan-out
	// sixteenth repeats exactly, so the largest demand is often tied, and
	// a raiser just above it lifts the largest demand.
	demand := func(heavy bool) units.Bandwidth {
		k := rng.Intn(11)
		if !heavy {
			k %= 7
		}
		var frac float64
		switch {
		case k < 2:
			frac = 1.0 / 16
		case k < 4:
			frac = 0.01 * (1 + rng.Float64())
		case k < 6:
			frac = 1e-6 * (1 + 9*rng.Float64())
		case k < 7:
			frac = (1 + 3*rng.Float64()) / 16
		case k < 9:
			frac = 0.05 + 0.25*rng.Float64()
		default:
			frac = 0.3 + 0.4*rng.Float64()
		}
		return units.Bandwidth(frac * link)
	}
	hosts := len(h.x.tc.Hosts)
	other := func(host int) int {
		for {
			if o := rng.Intn(hosts); o != host {
				return o
			}
		}
	}
	var inFast, inSolved int
	for step := 0; step < steps; step++ {
		if f.fast {
			inFast++
		} else {
			inSolved++
		}
		// Phases alternate between a light mix, where the largest demand
		// stays near the fan-out sixteenth, and a heavy one.
		heavy := (step/250)%2 == 1
		var op string
		switch r := rng.Float64(); {
		case step%40 == 39:
			op = "burst"
			victim := rng.Intn(hosts)
			for i := 0; i < 16; i++ {
				if h.admit(other(victim), victim, rate) {
					t.Fatalf("step %d: full-rate newcomer admitted", step)
				}
			}
		case len(f.flows) > 0 && r < 0.02:
			op = "aqm"
			fl := f.flows[rng.Intn(len(f.flows))]
			h.aqm(fl.path[rng.Intn(len(fl.path))])
		case r < 0.03:
			op = "demote"
			h.demoteAll()
		case len(f.flows) > 0 && (r < 0.45 || len(f.flows) > 48):
			op = "complete"
			h.complete(rng.Intn(len(f.flows)))
		default:
			op = "admit"
			src := rng.Intn(hosts)
			h.admit(src, other(src), demand(heavy))
		}
		h.check(step, op)
	}
	t.Logf("%d operations in the fast regime, %d solved; %+v", inFast, inSolved, f.Stats())
	if inFast < steps/10 || inSolved < steps/10 {
		t.Fatalf("history covers the regimes unevenly: %d fast, %d solved", inFast, inSolved)
	}
}

// testRaisedLargestDemand admits a newcomer that raises the largest demand
// while a port off its path holds five flows, so that port turns tight
// although the newcomer's own path has room. The solve then fixes the
// newcomer in its second pass, after a later flow on the same uplink, and an
// allocation that kept the fast regime would add the two in the other order.
func testRaisedLargestDemand(t *testing.T) {
	const (
		rate      = 1e17
		sixteenth = units.Bandwidth(rate / 16)
		a         = units.Bandwidth(3_000_000_000_000_017)
		raiser    = units.Bandwidth(25_000_000_000_000_003) // a quarter: over the tight share of a fifth
		later     = units.Bandwidth(6_000_000_000_000_001)
	)
	if fa, fn, fl := float64(a), float64(raiser), float64(later); (fa+fl)+fn == (fa+fn)+fl {
		t.Fatal("the demands do not tell the summation orders apart")
	}
	h := newDiffHarness(t, rate)
	step := 0
	admit := func(src, dst int, d units.Bandwidth) {
		t.Helper()
		if !h.admit(src, dst, d) {
			t.Fatalf("step %d: %d -> %d refused", step, src, dst)
		}
		h.check(step, "admit")
		step++
	}
	for dst := 1; dst <= 5; dst++ {
		admit(0, dst, sixteenth) // host 0's uplink: five flows, a share of a fifth
	}
	admit(8, 10, a)
	admit(8, 9, raiser)
	admit(8, 11, later)
	h.complete(0)
	h.check(step, "complete")
}

// TestFluidWithdrawalRestores pins the withdrawal contract: a refused
// newcomer leaves every standing flow's rate and every tracked port's
// allocation bit-equal to its value before the offer, and counts one
// refusal. Both regimes are covered, and in each both a newcomer withdrawn
// without a solve and one withdrawn after a full solve.
func TestFluidWithdrawalRestores(t *testing.T) {
	type offer struct {
		src, dst int
		frac     float64 // demand as a share of the link rate
	}
	for _, tc := range []struct {
		name     string
		standing []offer
		fast     bool
		refused  []offer
	}{{
		// Host 0's uplink carries 0.1+0.1+0.2 with a share of 1/3 each;
		// host 5's carries 4 x 0.2 at a share of 1/4.
		name: "fast",
		standing: []offer{
			{0, 1, 0.1}, {0, 9, 0.1}, {0, 12, 0.2},
			{5, 2, 0.2}, {5, 3, 0.2}, {5, 10, 0.2}, {5, 11, 0.2},
		},
		fast: true,
		refused: []offer{
			{5, 13, 0.2}, // fast: a fifth 0.2 fills host 5's uplink to 1.0
			{4, 9, 1},    // solved: full rate raises the largest demand
			{0, 14, 1},
		},
	}, {
		// 0.1+0.1+0.4 on host 0's uplink: a share of 1/3 is below the
		// largest demand, so the first pass does not fix every flow.
		name:     "solved",
		standing: []offer{{0, 1, 0.1}, {0, 9, 0.1}, {0, 12, 0.4}, {5, 2, 0.2}},
		fast:     false,
		refused:  []offer{{4, 9, 1}, {0, 14, 1}, {5, 13, 0.9}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			x := newFluidFixture(t, topo.Config{
				Nodes: 16, Racks: 2, Spines: 2,
				LinkRate: 10 * units.Gbps, LinkDelay: units.Microsecond,
			})
			f := x.f
			link := float64(10 * units.Gbps)
			seq := uint16(0)
			start := func(o offer) bool {
				seq++
				return f.StartFlow(x.addr(o.src, 0x8000+seq), x.addr(o.dst, 9000), units.MiB,
					units.Bandwidth(o.frac*link), func() {}, func(units.ByteSize) {})
			}
			for _, o := range tc.standing {
				if !start(o) {
					t.Fatalf("standing flow %+v refused", o)
				}
			}
			if f.fast != tc.fast {
				t.Fatalf("fast regime %v before the offers, want %v", f.fast, tc.fast)
			}
			for _, o := range tc.refused {
				rates := make([]uint64, len(f.flows))
				for i, fl := range f.flows {
					rates[i] = math.Float64bits(fl.rate)
				}
				allocs := make([]uint64, len(x.ports))
				for i, fp := range x.ports {
					allocs[i] = math.Float64bits(fp.alloc)
				}
				refused := f.Stats().PacketRefused
				if start(o) {
					t.Fatalf("newcomer %+v admitted, want withdrawn", o)
				}
				if got := f.Stats().PacketRefused - refused; got != 1 {
					t.Errorf("newcomer %+v counted %d refusals, want 1", o, got)
				}
				if len(f.flows) != len(rates) {
					t.Fatalf("newcomer %+v left %d flows, want %d", o, len(f.flows), len(rates))
				}
				for i, fl := range f.flows {
					if math.Float64bits(fl.rate) != rates[i] {
						t.Errorf("newcomer %+v: flow %d rate %v, was %v", o, i, fl.rate, math.Float64frombits(rates[i]))
					}
				}
				for i, fp := range x.ports {
					if math.Float64bits(fp.alloc) != allocs[i] {
						t.Errorf("newcomer %+v: port %d alloc %v, was %v", o, i, fp.alloc, math.Float64frombits(allocs[i]))
					}
				}
				if f.fast != tc.fast {
					t.Errorf("newcomer %+v: fast regime %v after withdrawal, want %v", o, f.fast, tc.fast)
				}
			}
		})
	}
}

// BenchmarkFluidChurn replays a macroscale-shaped history through the
// controller on the 4096-node, 128-rack, 8-spine fabric at 10 Gbps. Fan-out
// jobs of 8 transfers of 512 KiB at a sixteenth of the link rate arrive
// every 200µs on average and hold about 270 flows over about 700 ports,
// beside 4 KiB probes at a hundredth of the rate every 31.25µs. Every 40th
// job is instead a burst of 16 full-rate newcomers onto one host, each
// withdrawn. One op is 100ms of arrivals, run until every flow completes.
func BenchmarkFluidChurn(b *testing.B) {
	x := newFluidFixture(b, topo.Config{
		Nodes: 4096, Racks: 128, Spines: 8,
		LinkRate: 10 * units.Gbps, LinkDelay: units.Microsecond,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.churn(b, 100*units.Millisecond)
	}
}

// churn schedules span of macroscale-shaped arrivals from the current time
// and runs the engine until every flow has completed.
func (x *fluidFixture) churn(b *testing.B, span units.Duration) {
	f, eng := x.f, x.eng
	rng := rand.New(rand.NewSource(1))
	hosts := len(x.tc.Hosts)
	link := 10 * units.Gbps
	end := eng.Now().Add(span)
	var seq uint16
	nop := func() {}
	nopPromote := func(units.ByteSize) {}
	offer := func(src, dst int, size units.ByteSize, demand units.Bandwidth) {
		seq++
		f.StartFlow(x.addr(src, 0x8000|seq&0x7fff), x.addr(dst, 9100), size, demand, nop, nopPromote)
	}
	other := func(h int) int {
		for {
			if o := rng.Intn(hosts); o != h {
				return o
			}
		}
	}
	job := 0
	var nextJob, nextProbe func()
	nextJob = func() {
		if eng.Now() >= end {
			return
		}
		job++
		if job%40 == 0 {
			victim := rng.Intn(hosts)
			for i := 0; i < 16; i++ {
				offer(other(victim), victim, 512*units.KiB, link)
			}
		} else {
			src := rng.Intn(hosts)
			for i := 0; i < 8; i++ {
				offer(src, other(src), 512*units.KiB, link/16)
			}
		}
		gap := units.Duration(rng.ExpFloat64() * float64(200*units.Microsecond))
		eng.Schedule(eng.Now().Add(gap+1), nextJob)
	}
	nextProbe = func() {
		if eng.Now() >= end {
			return
		}
		src := rng.Intn(hosts)
		offer(src, other(src), 4*units.KiB, link/100)
		eng.Schedule(eng.Now().Add(31250), nextProbe)
	}
	eng.Schedule(eng.Now(), nextJob)
	eng.Schedule(eng.Now(), nextProbe)
	eng.Run()
	if n := f.ActiveFlows(); n != 0 {
		b.Fatalf("%d flows still active after the run", n)
	}
}
