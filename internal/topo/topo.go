// Package topo builds the simulated cluster topologies used in the
// experiments: a single-switch star (every node one hop from every other,
// the classic MRPerf topology), a two-tier tree (racks of nodes under
// top-of-rack switches joined by an aggregation switch), and a three-tier
// leaf-spine fabric (racks under leaf switches, every leaf connected to
// every spine, cross-rack traffic ECMP-hashed across the spines).
//
// Every egress port — host uplinks and switch ports alike — gets its own
// queue discipline instance from a factory, so an experiment can install
// DropTail, RED in any protection mode, or SimpleMark uniformly.
//
// Built fabrics can be degraded after construction: FailLink removes an
// inter-switch link and rebuilds the route groups around it (leaf-spine
// only — the other topologies have no alternate paths), DerateLink lowers a
// link's rate to a fraction of its built value. Together they model the
// asymmetric link health that stresses ECMP fabrics.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

// QdiscFactory builds a fresh queue discipline for one egress port. The
// label identifies the port (useful for seeding and debugging).
type QdiscFactory func(label string, rate units.Bandwidth) qdisc.Qdisc

// Config describes a cluster fabric.
type Config struct {
	// Nodes is the number of worker hosts.
	Nodes int
	// Racks partitions nodes across top-of-rack switches. Racks <= 1 builds
	// a single-switch star.
	Racks int
	// Spines adds a spine tier above the racks: every rack's leaf switch
	// connects to every spine, and cross-rack traffic is ECMP-hashed across
	// them. Spines > 0 requires Racks >= 2.
	Spines int
	// LinkRate applies to every edge link (host<->ToR).
	LinkRate units.Bandwidth
	// CoreRate applies to each inter-switch link (ToR<->aggregation, or
	// leaf<->spine); defaults from LinkRate, rack size, Oversub and (for
	// leaf-spine) the spine count.
	CoreRate units.Bandwidth
	// Oversub is the rack oversubscription factor used when CoreRate is
	// unset: a rack's total uplink capacity is rack-ingress/Oversub.
	// 0 means the historical default of 2.
	Oversub float64
	// LinkDelay is the one-way propagation delay per link.
	LinkDelay units.Duration
	// HashSeed salts the ECMP flow hash (leaf-spine only). Derive it from
	// the run seed so path selection is deterministic per run.
	HashSeed uint64
	// HostQueue, if non-nil, builds host-uplink qdiscs; otherwise hosts get
	// a large DropTail (the studied queues are in the switches).
	HostQueue QdiscFactory
	// SwitchQueue builds each switch egress qdisc.
	SwitchQueue QdiscFactory
}

// Validate reports a configuration error, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("topo: need at least 2 nodes, got %d", c.Nodes)
	case c.LinkRate <= 0:
		return fmt.Errorf("topo: link rate must be positive")
	case c.LinkDelay < 0:
		return fmt.Errorf("topo: link delay must be non-negative")
	case c.SwitchQueue == nil:
		return fmt.Errorf("topo: switch queue factory required")
	case c.Racks > 1 && c.Nodes%c.Racks != 0:
		return fmt.Errorf("topo: %d nodes not divisible into %d racks", c.Nodes, c.Racks)
	case c.Spines < 0:
		return fmt.Errorf("topo: spine count must be non-negative, got %d", c.Spines)
	case c.Spines > 0 && c.Racks < 2:
		return fmt.Errorf("topo: a spine tier needs at least 2 racks, got %d", c.Racks)
	case c.Oversub < 0:
		return fmt.Errorf("topo: oversubscription factor must be non-negative, got %g", c.Oversub)
	}
	return nil
}

// oversub returns the effective rack oversubscription factor.
func (c *Config) oversub() float64 {
	if c.Oversub > 0 {
		return c.Oversub
	}
	return 2
}

// fabricLink is one built inter-switch cable: two unidirectional ports and
// their built rates (derate factors are relative to the built rate, so
// repeated derates don't compound).
type fabricLink struct {
	a, b           *netsim.Switch
	ab, ba         *netsim.Port
	abRate, baRate units.Bandwidth
	failed         bool
}

// Cluster is a built fabric.
type Cluster struct {
	Net      *netsim.Network
	Hosts    []*netsim.Host
	Switches []*netsim.Switch
	// Leaves and Spines name the two switch tiers of a leaf-spine fabric
	// (nil otherwise). Switches always holds every switch.
	Leaves []*netsim.Switch
	Spines []*netsim.Switch
	// EdgePorts are the switch->host egress ports: the bottleneck queues
	// where data packets and ACKs collide during the shuffle.
	EdgePorts []*netsim.Port
	// CorePorts are all inter-switch ports (two-tier and leaf-spine).
	CorePorts []*netsim.Port
	// UpPorts (leaf->spine / ToR->agg) and DownPorts (spine->leaf /
	// agg->ToR) split CorePorts by direction.
	UpPorts   []*netsim.Port
	DownPorts []*netsim.Port

	// Lookahead is the minimum propagation delay over the links that cross
	// a shard boundary — the conservative horizon of the sharded event
	// loop. Zero on single-shard builds (nothing crosses).
	Lookahead units.Duration

	links   []*fabricLink
	rebuild func() error // topology-specific route-group rebuild (nil = single-path fabric)
}

// Build constructs the cluster on the engine.
func Build(eng *sim.Engine, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	switch {
	case cfg.Racks <= 1:
		return buildStar(eng, cfg)
	case cfg.Spines > 0:
		return buildLeafSpine(netsim.New(eng), cfg)
	default:
		return buildTwoTier(eng, cfg)
	}
}

// LeafShard is the partition rule for the leaf tier: rack r of a fabric cut
// into shards contiguous rack blocks. Hosts live with their leaf, so the
// only links that cross shards are leaf<->spine — the cut the conservative
// lookahead is derived from.
func LeafShard(racks, shards, r int) int { return r * shards / racks }

// SpineShard spreads the spine tier round-robin over the shards, balancing
// the spine event load.
func SpineShard(shards, s int) int { return s % shards }

// BuildSharded constructs the cluster partitioned over the given engines,
// one shard per engine. Only the leaf-spine shape can be cut (the star and
// two-tier fabrics share one switch among all racks), and there can be at
// most one shard per rack; callers validate both ahead of time, so a
// violation here panics. With a single engine this is exactly Build.
func BuildSharded(engines []*sim.Engine, cfg Config) *Cluster {
	if len(engines) == 1 {
		return Build(engines[0], cfg)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Spines == 0 || cfg.Racks < 2 {
		panic(fmt.Sprintf("topo: sharding requires a leaf-spine fabric (racks=%d spines=%d)", cfg.Racks, cfg.Spines))
	}
	if len(engines) > cfg.Racks {
		panic(fmt.Sprintf("topo: %d shards exceed %d racks", len(engines), cfg.Racks))
	}
	return buildLeafSpine(netsim.NewSharded(engines), cfg)
}

// switchIndex parses the numeric suffix of a builder-generated switch name
// ("leaf3", "spine0", "tor1"). Leading zeros are rejected — the builders
// never produce them, and accepting "leaf01" here would validate a name
// findLink can never match.
func switchIndex(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || rest == "" || (len(rest) > 1 && rest[0] == '0') {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// NamedLink resolves, without building the fabric, the inter-switch link two
// switch names denote on a fabric of the given shape — the authority on the
// builders' naming scheme, so callers validating configuration ahead of
// Build never drift from what Build constructs. On a leaf-spine shape
// (spines > 0) it accepts "leafL"/"spineS" in either order and returns their
// indices; on a two-tier shape (spines == 0, racks > 1) it accepts
// "torR"/"agg0" in either order and returns (rack, 0). ok is false when the
// shape has no such link.
func NamedLink(racks, spines int, a, b string) (i, j int, ok bool) {
	if spines > 0 {
		li, lok := switchIndex(a, "leaf")
		si, sok := switchIndex(b, "spine")
		if !lok || !sok {
			li, lok = switchIndex(b, "leaf")
			si, sok = switchIndex(a, "spine")
		}
		if lok && sok && li < racks && si < spines {
			return li, si, true
		}
		return 0, 0, false
	}
	if racks > 1 {
		ti, tok := switchIndex(a, "tor")
		other := b
		if !tok {
			ti, tok = switchIndex(b, "tor")
			other = a
		}
		if tok && ti < racks && other == "agg0" {
			return ti, 0, true
		}
	}
	return 0, 0, false
}

// SpinePathsSurvive reports whether a leaf-spine fabric with the given
// leaf<->spine links failed still connects every leaf pair — the exact
// condition rebuildRoutes enforces: some spine whose links to both leaves
// are up. It returns the first disconnected leaf pair, or (-1, -1, true).
func SpinePathsSurvive(racks, spines int, failed map[[2]int]bool) (leafA, leafB int, ok bool) {
	for a := 0; a < racks; a++ {
		for b := a + 1; b < racks; b++ {
			alive := false
			for s := 0; s < spines; s++ {
				if !failed[[2]int{a, s}] && !failed[[2]int{b, s}] {
					alive = true
					break
				}
			}
			if !alive {
				return a, b, false
			}
		}
	}
	return -1, -1, true
}

// findLink locates the built inter-switch link between the named switches
// (either endpoint order), or nil.
func (cl *Cluster) findLink(a, b string) *fabricLink {
	for _, l := range cl.links {
		if (l.a.Name == a && l.b.Name == b) || (l.a.Name == b && l.b.Name == a) {
			return l
		}
	}
	return nil
}

// LinkNames lists the inter-switch links as "a<->b" strings, in build order.
func (cl *Cluster) LinkNames() []string {
	names := make([]string, len(cl.links))
	for i, l := range cl.links {
		names[i] = l.a.Name + "<->" + l.b.Name
	}
	return names
}

// FailLink takes the inter-switch link between the named switches out of
// service (both directions) and rebuilds every route group around it. It
// fails if the link does not exist, if the fabric has no alternate paths
// (star, two-tier), or if removing the link would leave some destination
// unreachable — in which case the fabric is left unchanged.
func (cl *Cluster) FailLink(a, b string) error {
	l := cl.findLink(a, b)
	if l == nil {
		return fmt.Errorf("topo: no inter-switch link %s<->%s (have %v)", a, b, cl.LinkNames())
	}
	if cl.rebuild == nil {
		return fmt.Errorf("topo: failing %s<->%s would partition the fabric (no alternate paths)", a, b)
	}
	if l.failed {
		return nil
	}
	l.failed = true
	if err := cl.rebuild(); err != nil {
		l.failed = false
		if rerr := cl.rebuild(); rerr != nil {
			panic(fmt.Sprintf("topo: route rebuild rollback failed: %v", rerr))
		}
		return err
	}
	return nil
}

// DerateLink lowers the named inter-switch link's rate (both directions) to
// factor times its built rate, 0 < factor <= 1. Routes are unchanged —
// ECMP keeps hashing flows onto the slow path, which is exactly the
// asymmetric-fabric condition under study.
func (cl *Cluster) DerateLink(a, b string, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("topo: derate factor %g out of range (0, 1]", factor)
	}
	l := cl.findLink(a, b)
	if l == nil {
		return fmt.Errorf("topo: no inter-switch link %s<->%s (have %v)", a, b, cl.LinkNames())
	}
	l.ab.SetLinkRate(units.Bandwidth(float64(l.abRate) * factor))
	l.ba.SetLinkRate(units.Bandwidth(float64(l.baRate) * factor))
	return nil
}

func hostQueue(cfg Config, label string) qdisc.Qdisc {
	if cfg.HostQueue != nil {
		return cfg.HostQueue(label, cfg.LinkRate)
	}
	// Hosts get a Linux-like txqueuelen-1000 DropTail: the paper studies
	// the switch queues, so hosts keep the stock NIC queue.
	return qdisc.NewDropTail(1000)
}

func buildStar(eng *sim.Engine, cfg Config) *Cluster {
	net := netsim.New(eng)
	net.SetFlowHashSeed(cfg.HashSeed)
	sw := net.NewSwitch("sw0")
	cl := &Cluster{Net: net, Switches: []*netsim.Switch{sw}}
	link := netsim.LinkParams{Rate: cfg.LinkRate, Delay: cfg.LinkDelay}
	for i := 0; i < cfg.Nodes; i++ {
		h := net.NewHost(fmt.Sprintf("node%02d", i))
		upLabel := h.Name + "->sw0"
		h.AttachUplink(net.NewPort(h, sw, link, hostQueue(cfg, upLabel), upLabel))
		downLabel := "sw0->" + h.Name
		down := net.NewPort(sw, h, link, cfg.SwitchQueue(downLabel, cfg.LinkRate), downLabel)
		sw.AddPort(down)
		sw.SetRoute(h.ID(), down)
		cl.Hosts = append(cl.Hosts, h)
		cl.EdgePorts = append(cl.EdgePorts, down)
	}
	return cl
}

func buildTwoTier(eng *sim.Engine, cfg Config) *Cluster {
	net := netsim.New(eng)
	net.SetFlowHashSeed(cfg.HashSeed)
	cl := &Cluster{Net: net}
	perRack := cfg.Nodes / cfg.Racks
	coreRate := cfg.CoreRate
	if coreRate <= 0 {
		// Default: mildly oversubscribed core (historically 2:1).
		coreRate = units.Bandwidth(float64(cfg.LinkRate) * float64(perRack) / cfg.oversub())
	}
	agg := net.NewSwitch("agg0")
	cl.Switches = append(cl.Switches, agg)
	edge := netsim.LinkParams{Rate: cfg.LinkRate, Delay: cfg.LinkDelay}
	core := netsim.LinkParams{Rate: coreRate, Delay: cfg.LinkDelay}

	for r := 0; r < cfg.Racks; r++ {
		tor := net.NewSwitch(fmt.Sprintf("tor%d", r))
		cl.Switches = append(cl.Switches, tor)
		// ToR <-> agg.
		upLabel := tor.Name + "->agg0"
		up := net.NewPort(tor, agg, core, cfg.SwitchQueue(upLabel, coreRate), upLabel)
		tor.AddPort(up)
		downLabel := "agg0->" + tor.Name
		down := net.NewPort(agg, tor, core, cfg.SwitchQueue(downLabel, coreRate), downLabel)
		agg.AddPort(down)
		cl.CorePorts = append(cl.CorePorts, up, down)
		cl.UpPorts = append(cl.UpPorts, up)
		cl.DownPorts = append(cl.DownPorts, down)
		cl.links = append(cl.links, &fabricLink{
			a: tor, b: agg, ab: up, ba: down, abRate: coreRate, baRate: coreRate,
		})

		rackHosts := make([]*netsim.Host, 0, perRack)
		for i := 0; i < perRack; i++ {
			h := net.NewHost(fmt.Sprintf("node%02d", r*perRack+i))
			hupLabel := h.Name + "->" + tor.Name
			h.AttachUplink(net.NewPort(h, tor, edge, hostQueue(cfg, hupLabel), hupLabel))
			hdownLabel := tor.Name + "->" + h.Name
			hdown := net.NewPort(tor, h, edge, cfg.SwitchQueue(hdownLabel, cfg.LinkRate), hdownLabel)
			tor.AddPort(hdown)
			tor.SetRoute(h.ID(), hdown)
			agg.SetRoute(h.ID(), down)
			cl.Hosts = append(cl.Hosts, h)
			cl.EdgePorts = append(cl.EdgePorts, hdown)
			rackHosts = append(rackHosts, h)
		}
		// Hosts in other racks route via agg: the ToR default route.
		for _, h := range cl.Hosts {
			if tor.RouteFor(h.ID()) == nil {
				tor.SetRoute(h.ID(), up)
			}
		}
		_ = rackHosts
	}
	// Earlier racks need routes to hosts created later.
	for _, swt := range cl.Switches[1:] {
		torUp := swt.Ports()[0] // first port is the uplink
		for _, h := range cl.Hosts {
			if swt.RouteFor(h.ID()) == nil {
				swt.SetRoute(h.ID(), torUp)
			}
		}
	}
	return cl
}

// leafSpineState carries the built structure the route rebuild walks:
// tiered switches, hosts grouped per leaf, and the port/link matrices.
type leafSpineState struct {
	leaves, spines []*netsim.Switch
	hosts          [][]*netsim.Host // [leaf] -> hosts under it
	up             [][]*netsim.Port // [leaf][spine] leaf->spine egress
	down           [][]*netsim.Port // [spine][leaf] spine->leaf egress
	link           [][]*fabricLink  // [leaf][spine]
}

// rebuildRoutes recomputes every inter-rack route group from the current
// link health. A spine is a candidate for traffic from leaf l to leaf d iff
// both the l<->spine and spine<->d links are up: a leaf never hashes a flow
// onto a spine that cannot reach the destination rack. Local (intra-rack)
// routes are set once at build time and never change. The rebuild reports an
// error — without installing a partial state on the affected destination —
// if some leaf pair has no surviving spine.
func (st *leafSpineState) rebuildRoutes() error {
	var cands []*netsim.Port // reused: SetRoutes stores its own copy
	for li, leaf := range st.leaves {
		for di, dstHosts := range st.hosts {
			if di == li {
				continue
			}
			cands = cands[:0]
			for si := range st.spines {
				if st.link[li][si].failed || st.link[di][si].failed {
					continue
				}
				cands = append(cands, st.up[li][si])
			}
			if len(cands) == 0 {
				return fmt.Errorf("topo: no surviving spine path from %s to %s",
					leaf.Name, st.leaves[di].Name)
			}
			for _, h := range dstHosts {
				leaf.SetRoutes(h.ID(), cands...)
			}
		}
	}
	for si, sp := range st.spines {
		for li := range st.leaves {
			for _, h := range st.hosts[li] {
				if st.link[li][si].failed {
					// No leaf will hash onto this spine for these hosts;
					// clearing the route turns a routing bug into a panic
					// instead of a silently resurrected path.
					sp.ClearRoute(h.ID())
				} else {
					sp.SetRoute(h.ID(), st.down[si][li])
				}
			}
		}
	}
	return nil
}

// buildLeafSpine constructs the three-tier fabric: Racks leaf switches each
// holding Nodes/Racks hosts, Spines spine switches, and a full leaf<->spine
// mesh. Cross-rack traffic ECMPs over the spines by 5-tuple flow hash.
func buildLeafSpine(net *netsim.Network, cfg Config) *Cluster {
	net.SetFlowHashSeed(cfg.HashSeed)
	cl := &Cluster{Net: net}
	shards := net.ShardCount()
	perRack := cfg.Nodes / cfg.Racks
	coreRate := cfg.CoreRate
	if coreRate <= 0 {
		// Default: the rack's uplink capacity is its ingress divided by the
		// oversubscription factor, split evenly across the spines.
		coreRate = units.Bandwidth(float64(cfg.LinkRate) * float64(perRack) / (cfg.oversub() * float64(cfg.Spines)))
	}
	edge := netsim.LinkParams{Rate: cfg.LinkRate, Delay: cfg.LinkDelay}
	core := netsim.LinkParams{Rate: coreRate, Delay: cfg.LinkDelay}

	st := &leafSpineState{
		hosts: make([][]*netsim.Host, cfg.Racks),
		up:    make([][]*netsim.Port, cfg.Racks),
		down:  make([][]*netsim.Port, cfg.Spines),
		link:  make([][]*fabricLink, cfg.Racks),
	}
	for s := 0; s < cfg.Spines; s++ {
		sp := net.NewSwitchOn(SpineShard(shards, s), fmt.Sprintf("spine%d", s))
		st.spines = append(st.spines, sp)
		st.down[s] = make([]*netsim.Port, cfg.Racks)
	}
	cl.Switches = append(cl.Switches, st.spines...)
	cl.Spines = st.spines

	for r := 0; r < cfg.Racks; r++ {
		rackShard := LeafShard(cfg.Racks, shards, r)
		leaf := net.NewSwitchOn(rackShard, fmt.Sprintf("leaf%d", r))
		st.leaves = append(st.leaves, leaf)
		cl.Switches = append(cl.Switches, leaf)
		st.up[r] = make([]*netsim.Port, cfg.Spines)
		st.link[r] = make([]*fabricLink, cfg.Spines)

		// Full mesh to the spine tier.
		for s, sp := range st.spines {
			if sp.Shard() != leaf.Shard() && (cl.Lookahead == 0 || core.Delay < cl.Lookahead) {
				cl.Lookahead = core.Delay
			}
			upLabel := leaf.Name + "->" + sp.Name
			up := net.NewPort(leaf, sp, core, cfg.SwitchQueue(upLabel, coreRate), upLabel)
			leaf.AddPort(up)
			downLabel := sp.Name + "->" + leaf.Name
			down := net.NewPort(sp, leaf, core, cfg.SwitchQueue(downLabel, coreRate), downLabel)
			sp.AddPort(down)
			st.up[r][s], st.down[s][r] = up, down
			st.link[r][s] = &fabricLink{
				a: leaf, b: sp, ab: up, ba: down, abRate: coreRate, baRate: coreRate,
			}
			cl.links = append(cl.links, st.link[r][s])
			cl.CorePorts = append(cl.CorePorts, up, down)
			cl.UpPorts = append(cl.UpPorts, up)
			cl.DownPorts = append(cl.DownPorts, down)
		}

		// Hosts under the leaf; intra-rack routes are final here.
		for i := 0; i < perRack; i++ {
			h := net.NewHostOn(rackShard, fmt.Sprintf("node%02d", r*perRack+i))
			hupLabel := h.Name + "->" + leaf.Name
			h.AttachUplink(net.NewPort(h, leaf, edge, hostQueue(cfg, hupLabel), hupLabel))
			hdownLabel := leaf.Name + "->" + h.Name
			hdown := net.NewPort(leaf, h, edge, cfg.SwitchQueue(hdownLabel, cfg.LinkRate), hdownLabel)
			leaf.AddPort(hdown)
			leaf.SetRoute(h.ID(), hdown)
			cl.Hosts = append(cl.Hosts, h)
			cl.EdgePorts = append(cl.EdgePorts, hdown)
			st.hosts[r] = append(st.hosts[r], h)
		}
	}
	cl.Leaves = st.leaves
	cl.rebuild = st.rebuildRoutes
	if err := cl.rebuild(); err != nil {
		panic(err) // unreachable: all links are up at build time
	}
	return cl
}

// RackOf returns the rack index of host i under the given config.
func RackOf(cfg Config, i int) int {
	if cfg.Racks <= 1 {
		return 0
	}
	return i / (cfg.Nodes / cfg.Racks)
}
