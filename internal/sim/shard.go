package sim

import (
	"fmt"

	"repro/internal/pool"
)

// This file implements the sharded event loop: several Engines — one per
// fabric partition plus one control engine for globally-serialized events —
// advancing in lockstep under conservative lookahead.
//
// The contract (DESIGN.md §2.6):
//
//   - Shard engines own disjoint state and may only interact through
//     timestamped handoffs whose delivery lag is at least the group's
//     Lookahead (in the fabric: the minimum cross-shard link propagation
//     delay).
//   - The group repeatedly opens a window [T, H) with T = the earliest
//     pending shard event and H = min(T+Lookahead, next control event). All
//     shards execute their local events below H concurrently; any handoff
//     they emit has an arrival timestamp ≥ T+Lookahead ≥ H, so one round per
//     window is sufficient — no shard can receive work it should already
//     have executed.
//   - At each barrier the coordinator drains the handoff lanes into the
//     destination engines in a deterministic order, backdating each entry's
//     schedAt key to its send time so it sorts exactly where a single serial
//     engine would have placed it.
//   - Control events (job bookkeeping with zero-lag global effects) run on
//     the coordinator with every engine's clock aligned, which is safe
//     because no shard holds an earlier pending event at that point.
//
// With one shard the control engine IS the shard engine and RunLoop is the
// classic serial step loop — Shards(1) is the serial engine, not a
// lookalike.

// RunOutcome reports how a group run ended.
type RunOutcome int

// Run outcomes.
const (
	// RunDone: the done predicate returned true.
	RunDone RunOutcome = iota
	// RunDeadlock: no events remain anywhere but done() is still false.
	RunDeadlock
	// RunTimeout: the next event lies past the deadline. No event after the
	// deadline has run, at any shard count.
	RunTimeout
)

// ctrlEntry is a control-event registration emitted by a shard during a
// parallel window, held until the next barrier.
type ctrlEntry struct {
	at  Time
	lin Lineage
	fn  func()
}

// Group coordinates one control engine and N shard engines.
type Group struct {
	shards    []*Engine
	ctrl      *Engine
	lookahead Duration

	// OnBarrier, if set, runs on the coordinator at every synchronization
	// point (barrier exits, and before serial execution). The fabric drains
	// its cross-shard packet lanes and replays buffered observations here.
	OnBarrier func()

	set      *pool.ShardSet
	horizon  Time
	parallel bool
	ctrlBox  [][]ctrlEntry
}

// NewGroup builds a group over n shard engines. With n == 1 the control
// engine is the shard engine itself and the run loop degenerates to the
// serial engine. lookahead is the conservative horizon; it must be positive
// when n > 1.
func NewGroup(shards []*Engine, lookahead Duration) *Group {
	if len(shards) == 0 {
		panic("sim: NewGroup with no shards")
	}
	g := &Group{shards: shards, lookahead: lookahead}
	if len(shards) == 1 {
		g.ctrl = shards[0]
	} else {
		if lookahead <= 0 {
			panic(fmt.Sprintf("sim: NewGroup with %d shards needs positive lookahead, got %v", len(shards), lookahead))
		}
		g.ctrl = New()
		g.ctrlBox = make([][]ctrlEntry, len(shards))
	}
	return g
}

// Shards returns the shard engines (index = shard id).
func (g *Group) Shards() []*Engine { return g.shards }

// Ctrl returns the control engine. With one shard it is the shard engine.
func (g *Group) Ctrl() *Engine { return g.ctrl }

// Serial reports whether the group is the one-shard degenerate case.
func (g *Group) Serial() bool { return len(g.shards) == 1 }

// Lookahead returns the conservative horizon.
func (g *Group) Lookahead() Duration { return g.lookahead }

// Executed sums executed events over every engine in the group.
func (g *Group) Executed() uint64 {
	n := uint64(0)
	for _, sh := range g.shards {
		n += sh.Executed()
	}
	if !g.Serial() {
		n += g.ctrl.Executed()
	}
	return n
}

// Now returns the control engine's clock: the time of the last
// globally-serialized event, which is what a serial run's Now() reports
// after RunLoop returns RunDone. After RunTimeout it is the time of the last
// event run on any engine, which a serial run reports too.
func (g *Group) Now() Time { return g.ctrl.Now() }

// InParallelWindow reports whether shard workers are currently executing a
// window. Callers on shard goroutines use it to decide between direct
// scheduling and barrier-deferred handoff.
func (g *Group) InParallelWindow() bool { return g.parallel }

// ScheduleControl registers fn as a globally-serialized event at time at,
// ordered by the sender-captured lineage, from the context of the given
// shard. During a parallel window the registration is buffered shard-locally
// and flushed at the next barrier; in serial contexts it lands on the
// control engine immediately. Either way the control heap orders it by
// (at, lineage), exactly where a serial engine would have put it.
func (g *Group) ScheduleControl(shard int, at Time, lin Lineage, fn func()) {
	if g.parallel {
		g.ctrlBox[shard] = append(g.ctrlBox[shard], ctrlEntry{at: at, lin: lin, fn: fn})
		return
	}
	g.ctrl.ScheduleLineage(at, lin, fn)
}

// flushCtrl moves buffered control registrations onto the control engine,
// box by box in shard order, each in arrival order. It does not sort: the
// control heap orders events by (at, lineage) and then by the order they
// were scheduled in, so the registrations fire in (at, lineage, shard,
// arrival) order.
func (g *Group) flushCtrl() {
	for i, box := range g.ctrlBox {
		for j := range box {
			g.ctrl.ScheduleLineage(box[j].at, box[j].lin, box[j].fn)
			box[j].fn = nil
		}
		g.ctrlBox[i] = box[:0]
	}
}

// minShard returns the shard holding the earliest pending shard event and
// that event's time. It compares the heads in place: the key tail is read
// from the engines' records only when two heads fire at the same time.
func (g *Group) minShard() (at Time, shard int, ok bool) {
	for i, sh := range g.shards {
		a, has := sh.head()
		if !has {
			continue
		}
		if !ok || a < at || (a == at && headTailLess(sh, g.shards[shard])) {
			at, shard, ok = a, i, true
		}
	}
	return at, shard, ok
}

// barrier runs the coordinator-side drain hook.
func (g *Group) barrier() {
	if g.OnBarrier != nil {
		g.OnBarrier()
	}
}

// RunLoop drives the group until done() reports true, no events remain
// (RunDeadlock), or the next event lies past deadline (RunTimeout; 0 means
// unbounded). done is evaluated on the coordinator after every
// globally-serialized event, matching the serial loop's per-step check —
// shard-local events cannot change it.
//
// A deadline cuts every shard count at the same event: an event at the
// deadline runs, none after it does, and on RunTimeout Now reads the time of
// the last event run, as a serial run's clock does.
func (g *Group) RunLoop(done func() bool, deadline Time) RunOutcome {
	if g.Serial() {
		// The classic serial loop: Shards(1) is not a simulation of the old
		// engine, it is the old engine.
		e := g.ctrl
		for !done() {
			at, ok := e.head()
			if !ok {
				return RunDeadlock
			}
			if deadline != 0 && at > deadline {
				return RunTimeout
			}
			e.Step()
		}
		return RunDone
	}

	g.set = pool.NewShardSet(len(g.shards), g.runShard)
	defer func() {
		g.set.Close()
		g.set = nil
	}()
	// Final drain, LIFO-ordered before the worker shutdown above: a tie-step
	// or the last control event can buffer handoffs and observations after
	// the last in-loop barrier, and a serial run would have counted them.
	// Workers are parked between rounds, so the drain is race-free.
	defer func() {
		g.flushCtrl()
		g.barrier()
	}()

	for !done() {
		g.flushCtrl()
		g.barrier()

		gAt, gOK := g.ctrl.head()
		mAt, mi, mOK := g.minShard()
		if !gOK && !mOK {
			return RunDeadlock
		}
		next := gAt
		if mOK && (!gOK || mAt < gAt) {
			next = mAt
		}
		if deadline != 0 && next > deadline {
			// Read what a serial run's clock reads: the last event run.
			last := g.ctrl.Now()
			for _, sh := range g.shards {
				last = max(last, sh.Now())
			}
			g.ctrl.SetNow(last)
			return RunTimeout
		}

		if mOK {
			h := mAt.Add(g.lookahead)
			if gOK && gAt < h {
				h = gAt
			}
			if deadline != 0 && h > deadline {
				h = deadline + 1 // no shard event after the deadline runs
			}
			if h > mAt {
				// Parallel window [mAt, h): every shard runs its local
				// events below h concurrently, then the barrier at the top
				// of the loop drains what they emitted.
				g.horizon = h
				g.parallel = true
				g.set.Round()
				g.parallel = false
				continue
			}
			// h <= mAt means a control event caps the window at or before the
			// shard minimum. Only at a genuinely shared instant does the key
			// tail decide; if the control event is strictly earlier it is
			// globally next regardless of lineage (a shard event's lineage
			// starts at its *schedule* time, which can predate everything).
			if gAt == mAt && !headTailLess(g.ctrl, g.shards[mi]) {
				g.shards[mi].Step()
				continue
			}
		}

		// The control event is globally next. Align every clock on its
		// timestamp — safe: no shard holds an earlier pending event — then
		// execute it serially so its zero-lag global effects (scheduling on
		// any engine, cross-shard sends) happen with all workers parked.
		// gLin points into the control engine's records, which nothing here
		// writes.
		gLin, gTok := g.ctrl.headKey()
		for _, sh := range g.shards {
			if sh.Now() < gAt {
				sh.SetNow(gAt)
			}
			sh.setContext(gLin, gTok)
		}
		g.ctrl.Step()
	}
	return RunDone
}

// runShard is the per-round worker body.
func (g *Group) runShard(i int) {
	g.shards[i].RunWindow(g.horizon)
}
