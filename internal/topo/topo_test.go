package topo

import (
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

func dtFactory(label string, rate units.Bandwidth) qdisc.Qdisc {
	return qdisc.NewDropTail(100)
}

func starConfig(n int) Config {
	return Config{
		Nodes:       n,
		LinkRate:    10 * units.Gbps,
		LinkDelay:   5 * units.Microsecond,
		SwitchQueue: dtFactory,
	}
}

func TestStarShape(t *testing.T) {
	cl := Build(sim.New(), starConfig(8))
	if len(cl.Hosts) != 8 {
		t.Errorf("hosts = %d", len(cl.Hosts))
	}
	if len(cl.Switches) != 1 {
		t.Errorf("switches = %d", len(cl.Switches))
	}
	if len(cl.EdgePorts) != 8 {
		t.Errorf("edge ports = %d", len(cl.EdgePorts))
	}
	if len(cl.CorePorts) != 0 {
		t.Errorf("core ports = %d in a star", len(cl.CorePorts))
	}
	for i, h := range cl.Hosts {
		if h.Uplink() == nil {
			t.Fatalf("host %d missing uplink", i)
		}
		if cl.Switches[0].RouteFor(h.ID()) == nil {
			t.Fatalf("switch missing route to host %d", i)
		}
	}
}

func TestStarAllPairsConnectivity(t *testing.T) {
	eng := sim.New()
	cl := Build(eng, starConfig(4))
	// Deliver one packet for every ordered pair.
	type rec struct{ got int }
	recs := make([]*rec, 4)
	for i, h := range cl.Hosts {
		r := &rec{}
		recs[i] = r
		h.AttachProtocol(protoFunc(func(p *packet.Packet) { r.got++ }))
	}
	id := uint64(0)
	for i, src := range cl.Hosts {
		for j, dst := range cl.Hosts {
			if i == j {
				continue
			}
			id++
			src.Send(&packet.Packet{
				ID:  id,
				Src: packet.Addr{Node: src.ID(), Port: 1},
				Dst: packet.Addr{Node: dst.ID(), Port: 1},
			})
		}
	}
	eng.Run()
	for i, r := range recs {
		if r.got != 3 {
			t.Errorf("host %d received %d, want 3", i, r.got)
		}
	}
}

type protoFunc func(*packet.Packet)

func (f protoFunc) Deliver(p *packet.Packet) { f(p) }

func TestTwoTierShape(t *testing.T) {
	cfg := starConfig(8)
	cfg.Racks = 2
	cl := Build(sim.New(), cfg)
	if len(cl.Switches) != 3 { // agg + 2 ToR
		t.Errorf("switches = %d, want 3", len(cl.Switches))
	}
	if len(cl.EdgePorts) != 8 {
		t.Errorf("edge ports = %d", len(cl.EdgePorts))
	}
	if len(cl.CorePorts) != 4 { // 2 racks x up+down
		t.Errorf("core ports = %d, want 4", len(cl.CorePorts))
	}
}

func TestTwoTierAllPairsConnectivity(t *testing.T) {
	eng := sim.New()
	cfg := starConfig(6)
	cfg.Racks = 3
	cl := Build(eng, cfg)
	got := make(map[packet.NodeID]int)
	for _, h := range cl.Hosts {
		h := h
		h.AttachProtocol(protoFunc(func(p *packet.Packet) { got[h.ID()]++ }))
	}
	id := uint64(0)
	for i, src := range cl.Hosts {
		for j, dst := range cl.Hosts {
			if i == j {
				continue
			}
			id++
			src.Send(&packet.Packet{
				ID:  id,
				Src: packet.Addr{Node: src.ID(), Port: 1},
				Dst: packet.Addr{Node: dst.ID(), Port: 1},
			})
		}
	}
	eng.Run()
	for _, h := range cl.Hosts {
		if got[h.ID()] != 5 {
			t.Errorf("host %v received %d, want 5", h.ID(), got[h.ID()])
		}
	}
}

func TestTwoTierCrossRackTraversesAgg(t *testing.T) {
	eng := sim.New()
	cfg := starConfig(4)
	cfg.Racks = 2
	cl := Build(eng, cfg)
	var hops int
	dst := cl.Hosts[3] // other rack than host 0
	dst.AttachProtocol(protoFunc(func(p *packet.Packet) { hops = p.Hops }))
	cl.Hosts[0].Send(&packet.Packet{
		ID:  1,
		Src: packet.Addr{Node: cl.Hosts[0].ID(), Port: 1},
		Dst: packet.Addr{Node: dst.ID(), Port: 1},
	})
	eng.Run()
	if hops != 4 { // host->tor0->agg->tor1->host
		t.Errorf("cross-rack hops = %d, want 4", hops)
	}

	var sameRackHops int
	cl.Hosts[1].AttachProtocol(protoFunc(func(p *packet.Packet) { sameRackHops = p.Hops }))
	cl.Hosts[0].Send(&packet.Packet{
		ID:  2,
		Src: packet.Addr{Node: cl.Hosts[0].ID(), Port: 1},
		Dst: packet.Addr{Node: cl.Hosts[1].ID(), Port: 1},
	})
	eng.Run()
	if sameRackHops != 2 { // host->tor0->host
		t.Errorf("same-rack hops = %d, want 2", sameRackHops)
	}
}

func TestHostQueueFactoryUsed(t *testing.T) {
	used := 0
	cfg := starConfig(3)
	cfg.HostQueue = func(label string, rate units.Bandwidth) qdisc.Qdisc {
		used++
		return qdisc.NewDropTail(7)
	}
	cl := Build(sim.New(), cfg)
	if used != 3 {
		t.Errorf("host factory used %d times, want 3", used)
	}
	if cl.Hosts[0].Uplink().Queue().CapacityPackets() != 7 {
		t.Error("host uplink does not use the host factory's qdisc")
	}
}

func TestQdiscPerPortDistinct(t *testing.T) {
	cl := Build(sim.New(), starConfig(4))
	seen := make(map[qdisc.Qdisc]bool)
	for _, p := range cl.EdgePorts {
		if seen[p.Queue()] {
			t.Fatal("two ports share one qdisc instance")
		}
		seen[p.Queue()] = true
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1, LinkRate: 1, SwitchQueue: dtFactory},
		{Nodes: 4, LinkRate: 0, SwitchQueue: dtFactory},
		{Nodes: 4, LinkRate: 1, LinkDelay: -1, SwitchQueue: dtFactory},
		{Nodes: 4, LinkRate: 1},
		{Nodes: 5, Racks: 2, LinkRate: 1, SwitchQueue: dtFactory},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should not validate", i)
		}
	}
}

func TestRackOf(t *testing.T) {
	cfg := starConfig(8)
	cfg.Racks = 2
	if RackOf(cfg, 0) != 0 || RackOf(cfg, 3) != 0 || RackOf(cfg, 4) != 1 || RackOf(cfg, 7) != 1 {
		t.Error("RackOf misassigns")
	}
	if RackOf(starConfig(8), 5) != 0 {
		t.Error("star RackOf != 0")
	}
}

func TestEdgePortLabels(t *testing.T) {
	cl := Build(sim.New(), starConfig(2))
	if cl.EdgePorts[0].Label != "sw0->node00" {
		t.Errorf("label = %q", cl.EdgePorts[0].Label)
	}
	var _ *netsim.Port = cl.EdgePorts[0]
}

func leafSpineConfig(nodes, racks, spines int) Config {
	cfg := starConfig(nodes)
	cfg.Racks = racks
	cfg.Spines = spines
	return cfg
}

func TestLeafSpineShape(t *testing.T) {
	cl := Build(sim.New(), leafSpineConfig(8, 4, 2))
	if len(cl.Hosts) != 8 {
		t.Errorf("hosts = %d", len(cl.Hosts))
	}
	if len(cl.Switches) != 6 { // 2 spines + 4 leaves
		t.Errorf("switches = %d, want 6", len(cl.Switches))
	}
	if len(cl.Leaves) != 4 || len(cl.Spines) != 2 {
		t.Errorf("tiers = %d leaves, %d spines", len(cl.Leaves), len(cl.Spines))
	}
	if len(cl.CorePorts) != 16 { // 4 leaves x 2 spines x up+down
		t.Errorf("core ports = %d, want 16", len(cl.CorePorts))
	}
	if len(cl.UpPorts) != 8 || len(cl.DownPorts) != 8 {
		t.Errorf("up/down ports = %d/%d, want 8/8", len(cl.UpPorts), len(cl.DownPorts))
	}
	if len(cl.LinkNames()) != 8 {
		t.Errorf("links = %d, want 8", len(cl.LinkNames()))
	}
	// Cross-rack destinations resolve to a full ECMP group; local ones to
	// a single port.
	leaf0 := cl.Leaves[0]
	if got := len(leaf0.RoutesFor(cl.Hosts[7].ID())); got != 2 {
		t.Errorf("cross-rack route group size = %d, want 2", got)
	}
	if got := len(leaf0.RoutesFor(cl.Hosts[0].ID())); got != 1 {
		t.Errorf("local route group size = %d, want 1", got)
	}
}

// allPairs sends one packet for every ordered host pair and reports the
// per-host delivery counts.
func allPairs(t *testing.T, eng *sim.Engine, cl *Cluster) map[packet.NodeID]int {
	t.Helper()
	got := make(map[packet.NodeID]int)
	for _, h := range cl.Hosts {
		h := h
		h.AttachProtocol(protoFunc(func(p *packet.Packet) { got[h.ID()]++ }))
	}
	id := uint64(0)
	for i, src := range cl.Hosts {
		for j, dst := range cl.Hosts {
			if i == j {
				continue
			}
			id++
			src.Send(&packet.Packet{
				ID:  id,
				Src: packet.Addr{Node: src.ID(), Port: uint16(1000 + i)},
				Dst: packet.Addr{Node: dst.ID(), Port: uint16(2000 + j)},
			})
		}
	}
	eng.Run()
	return got
}

// TestLeafSpineAllPairsConnectivity is the connectivity property test: every
// ordered host pair exchanges a packet on the healthy fabric, again after a
// spine link fails (routes rebuilt around it), and the failed link carries
// no traffic afterwards.
func TestLeafSpineAllPairsConnectivity(t *testing.T) {
	eng := sim.New()
	cfg := leafSpineConfig(12, 3, 2)
	cfg.HashSeed = 99
	cl := Build(eng, cfg)
	want := len(cl.Hosts) - 1
	got := allPairs(t, eng, cl)
	for _, h := range cl.Hosts {
		if got[h.ID()] != want {
			t.Errorf("healthy fabric: host %v received %d, want %d", h.ID(), got[h.ID()], want)
		}
	}

	if err := cl.FailLink("leaf0", "spine0"); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	failedUp := cl.UpPorts[0] // leaf0->spine0 is built first
	if failedUp.Label != "leaf0->spine0" {
		t.Fatalf("port order changed: %q", failedUp.Label)
	}
	sentBefore, _ := failedUp.Sent()

	got = allPairs(t, eng, cl)
	for _, h := range cl.Hosts {
		if got[h.ID()] != want {
			t.Errorf("degraded fabric: host %v received %d, want %d", h.ID(), got[h.ID()], want)
		}
	}
	if sentAfter, _ := failedUp.Sent(); sentAfter != sentBefore {
		t.Errorf("failed link carried %d packets after FailLink", sentAfter-sentBefore)
	}
	// leaf0's cross-rack groups now hold only spine1.
	if got := cl.Leaves[0].RoutesFor(cl.Hosts[len(cl.Hosts)-1].ID()); len(got) != 1 {
		t.Errorf("route group after failure = %d candidates, want 1", len(got))
	}
}

// TestReselectionAllPairsConnectivity extends the post-failure property to
// congestion-aware reselection (netsim.Port.MarkHot): over many seeded
// combinations of hot ports — including every port hot at once — layered on
// top of a failed spine link, every ordered host pair still exchanges a
// packet and the dead link still carries nothing. Reselection only ever walks
// the route group, and route groups exclude failed links by construction, so
// no hot marking can steer a flow onto a dead or partitioned path.
func TestReselectionAllPairsConnectivity(t *testing.T) {
	const seeds = 32
	for seed := uint64(0); seed < seeds; seed++ {
		eng := sim.New()
		cfg := leafSpineConfig(12, 3, 2)
		cfg.HashSeed = seed
		cl := Build(eng, cfg)
		if err := cl.FailLink("leaf0", "spine0"); err != nil {
			t.Fatalf("seed %d: FailLink: %v", seed, err)
		}
		failedUp := cl.UpPorts[0] // leaf0->spine0 is built first
		if failedUp.Label != "leaf0->spine0" {
			t.Fatalf("port order changed: %q", failedUp.Label)
		}
		sentBefore, _ := failedUp.Sent()

		// A seeded subset of the surviving core ports runs hot for the whole
		// exchange (far future expiry); seed 1 marks every core port, so the
		// all-candidates-hot fallback is always covered.
		rng := seed * 0x9e3779b97f4a7c15
		forever := eng.Now().Add(units.Duration(1 << 50))
		for i, p := range cl.CorePorts {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if seed == 1 || rng&(1<<uint(i%8)) != 0 {
				p.MarkHot(forever)
			}
		}

		want := len(cl.Hosts) - 1
		got := allPairs(t, eng, cl)
		for _, h := range cl.Hosts {
			if got[h.ID()] != want {
				t.Errorf("seed %d: host %v received %d, want %d", seed, h.ID(), got[h.ID()], want)
			}
		}
		if sentAfter, _ := failedUp.Sent(); sentAfter != sentBefore {
			t.Errorf("seed %d: failed link carried %d packets under reselection", seed, sentAfter-sentBefore)
		}
	}
}

func TestLeafSpineFailLastSpineErrors(t *testing.T) {
	eng := sim.New()
	cl := Build(eng, leafSpineConfig(4, 2, 1))
	if err := cl.FailLink("leaf0", "spine0"); err == nil {
		t.Fatal("failing the only spine path should error")
	}
	// The rollback must leave the fabric fully routable: every ordered host
	// pair still exchanges a packet.
	want := len(cl.Hosts) - 1
	got := allPairs(t, eng, cl)
	for _, h := range cl.Hosts {
		if got[h.ID()] != want {
			t.Errorf("after rollback: host %v received %d, want %d", h.ID(), got[h.ID()], want)
		}
	}
}

func TestDerateLink(t *testing.T) {
	cl := Build(sim.New(), leafSpineConfig(4, 2, 2))
	up := cl.UpPorts[0]
	built := up.Link().Rate
	if err := cl.DerateLink("leaf0", "spine0", 0.25); err != nil {
		t.Fatal(err)
	}
	if got := up.Link().Rate; got != built/4 {
		t.Errorf("derated rate = %v, want %v", got, built/4)
	}
	// Derate factors are relative to the built rate, not compounding.
	if err := cl.DerateLink("leaf0", "spine0", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := up.Link().Rate; got != built/2 {
		t.Errorf("re-derated rate = %v, want %v", got, built/2)
	}
	if err := cl.DerateLink("leaf0", "spine0", 0); err == nil {
		t.Error("factor 0 accepted by DerateLink")
	}
	if err := cl.DerateLink("leaf0", "nope", 0.5); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestTwoTierDegradation(t *testing.T) {
	cfg := starConfig(4)
	cfg.Racks = 2
	cl := Build(sim.New(), cfg)
	if err := cl.FailLink("tor0", "agg0"); err == nil {
		t.Error("two-tier FailLink should report no alternate path")
	}
	if err := cl.DerateLink("tor0", "agg0", 0.5); err != nil {
		t.Errorf("two-tier DerateLink: %v", err)
	}
}

func TestLeafSpineValidation(t *testing.T) {
	bad := []Config{
		leafSpineConfig(8, 1, 2),  // spine tier without racks
		leafSpineConfig(8, 2, -1), // negative spines
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should not validate", i)
		}
	}
	cfg := leafSpineConfig(8, 4, 2)
	cfg.Oversub = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative oversubscription should not validate")
	}
}

func TestLeafSpineCrossRackHops(t *testing.T) {
	eng := sim.New()
	cl := Build(eng, leafSpineConfig(4, 2, 2))
	var hops int
	dst := cl.Hosts[3]
	dst.AttachProtocol(protoFunc(func(p *packet.Packet) { hops = p.Hops }))
	cl.Hosts[0].Send(&packet.Packet{
		ID:  1,
		Src: packet.Addr{Node: cl.Hosts[0].ID(), Port: 1},
		Dst: packet.Addr{Node: dst.ID(), Port: 1},
	})
	eng.Run()
	if hops != 4 { // host->leaf0->spineX->leaf1->host
		t.Errorf("cross-rack hops = %d, want 4", hops)
	}
}

func TestOversubShapesCoreRate(t *testing.T) {
	cfg := leafSpineConfig(8, 4, 2)
	base := Build(sim.New(), cfg).UpPorts[0].Link().Rate // default oversub 2
	cfg.Oversub = 1
	tight := Build(sim.New(), cfg).UpPorts[0].Link().Rate
	if tight != base*2 {
		t.Errorf("oversub 1 core rate = %v, want double the 2:1 default %v", tight, base)
	}
}

func TestNamedLink(t *testing.T) {
	cases := []struct {
		racks, spines int
		a, b          string
		ok            bool
	}{
		{4, 2, "leaf0", "spine1", true},
		{4, 2, "spine1", "leaf3", true}, // either endpoint order
		{4, 2, "leaf4", "spine0", false},
		{4, 2, "leaf0", "spine2", false},
		{4, 2, "leaf01", "spine0", false}, // leading zero: never a built name
		{4, 2, "leaf0", "leaf1", false},
		{4, 0, "tor2", "agg0", true},
		{4, 0, "agg0", "tor0", true},
		{4, 0, "tor4", "agg0", false},
		{4, 0, "leaf0", "spine0", false},
		{1, 0, "tor0", "agg0", false}, // star has no inter-switch links
	}
	for _, tc := range cases {
		if _, _, ok := NamedLink(tc.racks, tc.spines, tc.a, tc.b); ok != tc.ok {
			t.Errorf("NamedLink(%d, %d, %q, %q) ok = %v, want %v",
				tc.racks, tc.spines, tc.a, tc.b, ok, tc.ok)
		}
	}
}

func TestSpinePathsSurvive(t *testing.T) {
	// Both failures on spine0: spine1 still serves every pair.
	if _, _, ok := SpinePathsSurvive(4, 2, map[[2]int]bool{{0, 0}: true, {1, 0}: true}); !ok {
		t.Error("survivable failure set reported as partition")
	}
	// leaf0 lost spine0 and leaf1 lost spine1: no common spine for the pair.
	a, b, ok := SpinePathsSurvive(4, 2, map[[2]int]bool{{0, 0}: true, {1, 1}: true})
	if ok || a != 0 || b != 1 {
		t.Errorf("partition not detected: leaves %d,%d ok=%v", a, b, ok)
	}
}

// rackHosts returns the hosts under leaf r.
func rackHosts(cl *Cluster, r int) []*netsim.Host {
	per := len(cl.Hosts) / len(cl.Leaves)
	return cl.Hosts[r*per : (r+1)*per]
}

// upPort returns the leaf l -> spine s egress.
func upPort(cl *Cluster, l, s int) *netsim.Port { return cl.UpPorts[l*len(cl.Spines)+s] }

// checkSpineGroup asserts that leaf l routes every host under leaf d over
// one shared candidate slice holding exactly the uplinks to spines, in
// spine order.
func checkSpineGroup(t *testing.T, cl *Cluster, l, d int, spines ...int) {
	t.Helper()
	leaf := cl.Leaves[l]
	first := leaf.RoutesFor(rackHosts(cl, d)[0].ID())
	if len(first) != len(spines) {
		t.Errorf("leaf%d -> leaf%d: %d candidates, want spines %v", l, d, len(first), spines)
		return
	}
	for i, s := range spines {
		if first[i] != upPort(cl, l, s) {
			t.Errorf("leaf%d -> leaf%d: candidate %d is %s, want leaf%d->spine%d", l, d, i, first[i].Label, l, s)
		}
	}
	for _, h := range rackHosts(cl, d) {
		if got := leaf.RoutesFor(h.ID()); len(got) != len(first) || &got[0] != &first[0] {
			t.Errorf("leaf%d -> %s: not the shared group", l, h.Name)
		}
	}
}

func TestLeafSpineRemoteDestinationsShareOneGroup(t *testing.T) {
	cl := Build(sim.New(), leafSpineConfig(32, 4, 4))
	for l := range cl.Leaves {
		var shared []*netsim.Port
		for d := range cl.Leaves {
			if d == l {
				continue
			}
			checkSpineGroup(t, cl, l, d, 0, 1, 2, 3)
			g := cl.Leaves[l].RoutesFor(rackHosts(cl, d)[0].ID())
			if shared == nil {
				shared = g
			} else if &g[0] != &shared[0] {
				t.Errorf("leaf%d stores a separate spine group for leaf%d", l, d)
			}
		}
		// 8 local host ports plus one spine group.
		if got := cl.Leaves[l].RouteGroups(); got != 9 {
			t.Errorf("leaf%d holds %d route groups, want 9", l, got)
		}
	}
}

func TestLeafSpineGroupsFollowFailureAndRollback(t *testing.T) {
	cl := Build(sim.New(), leafSpineConfig(6, 3, 2))
	if err := cl.FailLink("leaf2", "spine0"); err != nil {
		t.Fatal(err)
	}
	survivors := func(when string) {
		t.Helper()
		checkSpineGroup(t, cl, 0, 1, 0, 1)
		checkSpineGroup(t, cl, 0, 2, 1)
		checkSpineGroup(t, cl, 1, 0, 0, 1)
		checkSpineGroup(t, cl, 1, 2, 1)
		checkSpineGroup(t, cl, 2, 0, 1)
		checkSpineGroup(t, cl, 2, 1, 1)
		for _, h := range rackHosts(cl, 2) {
			if cl.Spines[0].RoutesFor(h.ID()) != nil {
				t.Errorf("%s: spine0 still routes to %s over the failed link", when, h.Name)
			}
		}
	}
	survivors("after FailLink")

	// leaf1<->spine1 would leave leaf1 (spine0 only) and leaf2 (spine1
	// only) without a common spine. The rebuild installs leaf0's and part of
	// leaf1's groups before it finds that, then rolls back.
	tableSize := func() []int {
		var n []int
		for _, sw := range cl.Switches {
			n = append(n, sw.RouteGroups())
		}
		return n
	}
	var first []int
	for i := 0; i < 5; i++ {
		if err := cl.FailLink("leaf1", "spine1"); err == nil {
			t.Fatal("partitioning failure accepted")
		}
		survivors("after rollback")
		if first == nil {
			first = tableSize()
			continue
		}
		if got := tableSize(); !slices.Equal(got, first) {
			t.Fatalf("rollback %d: group tables grew from %v to %v", i, first, got)
		}
	}
}

// BenchmarkLeafSpineBuild builds the macroscale fabric: 4096 hosts under 128
// leaves and 8 spines, a RED queue with a 1 MiB buffer on every port (host
// uplinks too, as cluster.New builds it). Run it with -benchmem to follow
// the build's allocations.
func BenchmarkLeafSpineBuild(b *testing.B) {
	cfg := leafSpineConfig(4096, 128, 8)
	red := func(label string, rate units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewRED(qdisc.REDForTargetDelay(int(units.MiB/1500), rate, 500*units.Microsecond))
	}
	cfg.HostQueue, cfg.SwitchQueue = red, red
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(sim.New(), cfg)
	}
}
