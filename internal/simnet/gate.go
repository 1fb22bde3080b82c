// Package simnet is the drop-in net façade: it exposes the simulator's TCP
// stacks behind net.Conn and net.Listener so unmodified Go network code — a
// real net/http server, a real http.Client — runs as a tenant over the
// simulated fabric, deterministically.
//
// The determinism problem is that tenant code runs on ordinary goroutines
// the Go scheduler interleaves freely, while the simulation's bit-identical
// contract (DESIGN.md §4) requires every state change to happen as a
// control-engine event in a reproducible order. The façade resolves it with
// a cooperative virtual-time gate: tenant goroutines may touch simulation
// state only through blocking Conn/Listener operations, and each such
// operation is a rendezvous with the control engine — the tenant publishes a
// request and parks; a control event drains the parked requests in a
// canonical order, applies them to the stream state, and wakes the tenants
// whose operations completed. Between control events every tenant goroutine
// is parked (in a façade operation, or on a channel that only a façade wake
// can unblock), so the Go scheduler's interleaving of tenant code can never
// reach engine state. Simulated time is the only clock tenants observe
// (Net.Now, deadlines as control-engine timer events), mirroring the
// control-context discipline of the hybrid engine (DESIGN.md §2.7): shard
// observations feeding the gate re-enter control at observation time plus
// the cluster's control lag, identically at every shard count.
package simnet

import (
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// quiesceYields is how many consecutive scheduler yields without gate
// activity the settle waits before it takes a goroutine snapshot. The yields
// are only a fast path — with more than one P a tenant computing on another
// P is invisible to them — so they are tuned to spare snapshots, not to be
// sufficient: the snapshot (see confirm) is what decides. Measured on the
// reduced httpload-facade bench cell (2-vCPU x86 container, two runs each):
// 0 yields take ~68k snapshots and 35-36 s, 16 take 48k and 26-30 s, 64
// take 45k and 24-27 s, 256 take 43k and 26-28 s.
const quiesceYields = 64

// opKind orders parked requests within one settle batch. The order is part
// of the determinism contract: requests drained together raced in wall time,
// so the gate processes them in a canonical (kind, endpoint, tie-break)
// order instead of arrival order.
type opKind uint8

const (
	opListen opKind = iota
	opAccept
	opDial
	opRead
	opWrite
	opClose
	opDeadline
	opSleep
)

// op is one parked tenant request: the rendezvous record a blocking façade
// call publishes before parking. Fields under "request" are written by the
// tenant before it parks and read by the control engine; fields under
// "result" are written by the control engine before the wake and read by the
// tenant after it. The park/wake handoff orders both directions.
type op struct {
	kind opKind

	// request
	conn *Conn
	lis  *Listener
	node int            // dialing node (opDial)
	dst  string         // dial/listen target, canonical sort tie-break
	buf  []byte         // tenant buffer (opRead/opWrite); safe to touch only while the tenant is parked
	at   units.Time     // absolute deadline (opDeadline with set=true); duration to sleep (opSleep)
	set  bool           // opDeadline: set vs clear
	dmap deadlineTarget // opDeadline: which deadlines the call sets

	// result
	n       int
	err     error
	newConn *Conn
	newLis  *Listener

	seq  uint64 // arrival order, last-resort tie-break only
	done chan struct{}
}

// deadlineTarget selects which of a conn's deadlines a SetDeadline call
// touches.
type deadlineTarget uint8

const (
	deadlineRead deadlineTarget = 1 << iota
	deadlineWrite
)

// gate is the virtual-time rendezvous between tenant goroutines and the
// control engine. All fields are guarded by mu except vnow (atomic, the
// tenant-visible virtual clock), the request fields of individual ops
// (ordered by the park/wake handoff), and the control-context snapshot
// scratch.
type gate struct {
	mu   sync.Mutex
	cond *sync.Cond

	reqs []*op // published, not yet drained by the control engine

	// seq is the gate's version: it bumps on every publish, every wake
	// acknowledgement, and every spawn, registration or spawned-goroutine
	// exit.
	seq uint64

	// wakes counts delivered-but-unacknowledged wakes: the control engine
	// incremented it before signalling a parked op, and the woken tenant
	// decrements it as its first action. Nonzero means a woken goroutine has
	// not yet been scheduled, so the world is definitely not settled.
	wakes int

	// starting counts spawned goroutines that have not yet recorded their
	// goroutine id in tenants. A snapshot cannot attribute such a goroutine
	// to this gate, so a settle waits for the count to reach zero.
	starting int

	// tenants maps the id of every tenant goroutine the gate knows of to the
	// generation of the last snapshot that saw it alive (or the generation
	// current when it registered). A snapshot adds every goroutine whose
	// creator is a known tenant, so library goroutines — net/http's
	// per-connection and transport loops — join the set the first time a
	// snapshot sees them, and forgets ids absent from it (see confirm).
	tenants map[uint64]uint64
	gen     uint64

	// settledAt is the gate version at the last confirmed settle. While the
	// version still equals it nothing was published, woken, spawned or ended
	// since, so every tenant is still blocked and quiesce has nothing to do.
	// On the reduced httpload-facade bench cell this answers 24k of 67k
	// settles without a snapshot (without it: ~70k snapshots, 37-41 s
	// instead of 24-27 s).
	settledAt uint64

	shut bool

	vnow atomic.Int64 // units.Time; see Net.Now

	// Snapshot scratch, control context only.
	dump []byte
	gs   []gstate
}

func newGate() *gate {
	g := &gate{tenants: make(map[uint64]uint64)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// bump records gate activity, resetting any in-progress settle probe.
func (g *gate) bump() {
	g.mu.Lock()
	g.seq++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// spawn launches fn on a tenant goroutine. It is the façade's one sanctioned
// goroutine entry point (see the poolonly analyzer). The goroutine records
// its id as a tenant before running fn, so snapshots can attribute it and
// everything it starts to this gate; a settle waits for that record, and
// the goroutine's exit bumps the gate version.
func (g *gate) spawn(fn func()) {
	g.mu.Lock()
	g.seq++
	g.starting++
	g.cond.Broadcast()
	g.mu.Unlock()
	go func() {
		id := curGoroutineID()
		g.mu.Lock()
		g.tenants[id] = g.gen
		g.starting--
		g.seq++
		g.cond.Broadcast()
		g.mu.Unlock()
		defer g.bump()
		fn()
	}()
}

// do publishes o and parks until the control engine completes it. Called
// from tenant goroutines only.
func (g *gate) do(o *op) {
	o.done = make(chan struct{})
	g.mu.Lock()
	if g.shut {
		g.mu.Unlock()
		o.err = net.ErrClosed
		return
	}
	g.seq++
	o.seq = g.seq
	g.reqs = append(g.reqs, o)
	g.cond.Broadcast()
	g.mu.Unlock()

	<-o.done

	g.mu.Lock()
	g.wakes--
	g.seq++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wake completes o: records an outstanding wake and signals the parked
// tenant. Control context only; the result fields must be final.
func (g *gate) wake(o *op) {
	g.mu.Lock()
	g.wakes++
	g.mu.Unlock()
	close(o.done)
}

// quiesce blocks the control engine until the tenant world is settled:
// every tenant goroutine — the ones spawned through the gate and every
// goroutine they started, net/http internals included — is blocked on a
// channel, lock or condition, with no wake or spawn outstanding. Blocked
// tenants can be released only by the gate or by another tenant, so once
// every one of them is blocked, none can act again until the engine wakes
// one, and advancing virtual time is sound.
//
// Control context only, and never with mu held.
func (g *gate) quiesce() {
	for {
		g.mu.Lock()
		for g.wakes > 0 || g.starting > 0 {
			g.cond.Wait()
		}
		seq := g.seq
		if seq == g.settledAt {
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()

		if seq, ok := g.yield(seq); ok && g.confirm(seq) {
			return
		}
	}
}

// yield runs the scheduler until the gate version holds still for
// quiesceYields consecutive yields and returns that version. It reports
// false as soon as a wake or spawn is outstanding, and the caller starts
// over.
func (g *gate) yield(seq uint64) (uint64, bool) {
	for stable := 0; stable < quiesceYields; {
		runtime.Gosched()
		g.mu.Lock()
		busy := g.wakes > 0 || g.starting > 0
		if g.seq != seq {
			seq = g.seq
			stable = 0
		} else {
			stable++
		}
		g.mu.Unlock()
		if busy {
			return 0, false
		}
	}
	return seq, true
}

// confirm takes a snapshot of every goroutine in the process and reports
// whether the tenant world was settled in it at gate version seq; if so it
// records seq as settled. The snapshot stops the world, so it is a
// consistent cut: a tenant that is runnable, running, or waiting on
// something that ends by itself (a sleep, the garbage collector) fails it.
//
// Tenants are found by ancestry: the registered spawns, and every goroutine
// whose creator is a known tenant. The snapshot must not be taken with mu
// held, because a tenant waiting for mu would read as blocked.
func (g *gate) confirm(seq uint64) bool {
	g.mu.Lock()
	g.gen++
	gen := g.gen
	g.mu.Unlock()

	g.dump = snapshotGoroutines(g.dump)
	g.gs = parseGoroutines(g.gs[:0], g.dump)

	g.mu.Lock()
	defer g.mu.Unlock()
	// Adopt the children of known tenants, to a fixed point: the dump lists
	// goroutines in no particular order, and a tenant chain can be deep.
	for grew := true; grew; {
		grew = false
		for _, s := range g.gs {
			if _, ok := g.tenants[s.id]; ok {
				continue
			}
			if _, ok := g.tenants[s.parent]; ok && s.parent != 0 {
				g.tenants[s.id] = gen
				grew = true
			}
		}
	}
	settled := true
	for _, s := range g.gs {
		if _, ok := g.tenants[s.id]; !ok {
			continue
		}
		g.tenants[s.id] = gen
		if !s.blocked {
			settled = false
		}
	}
	// Forget tenants that had exited by the snapshot. Every goroutine one of
	// them started is either in this snapshot, and adopted above, or gone;
	// ids registered since the snapshot began carry gen and stay.
	for id, seen := range g.tenants {
		if seen < gen {
			delete(g.tenants, id)
		}
	}
	if !settled || g.seq != seq || g.wakes > 0 || g.starting > 0 {
		return false
	}
	g.settledAt = seq
	return true
}

// drain removes and returns the published requests in canonical order.
// Control context only, with the world quiesced.
func (g *gate) drain() []*op {
	g.mu.Lock()
	reqs := g.reqs
	g.reqs = nil
	g.mu.Unlock()
	sort.SliceStable(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if ai, bi := a.endpointID(), b.endpointID(); ai != bi {
			return ai < bi
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	return reqs
}

// endpointID is the canonical per-endpoint sort key: the conn or listener
// id the request addresses, or the dialing node. Ids are assigned in control
// context, so they are identical across runs; the racy arrival seq decides
// only between same-kind requests on one endpoint with identical targets,
// which the façade's usage discipline (one reader and one writer per conn,
// staggered dial instants) keeps symmetric when it occurs at all.
func (o *op) endpointID() uint64 {
	switch {
	case o.conn != nil:
		return o.conn.id
	case o.lis != nil:
		return o.lis.id
	default:
		return uint64(o.node)
	}
}

// parked reports whether any request is published but not yet drained.
func (g *gate) parked() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.reqs) > 0
}

// shutdown marks the gate closed: every future do returns net.ErrClosed
// immediately without parking. The caller (Net.Shutdown) separately fails
// the operations already parked.
func (g *gate) shutdown() {
	g.mu.Lock()
	g.shut = true
	g.mu.Unlock()
}
