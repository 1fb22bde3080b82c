package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap is the reference model: per-event pointer allocations
// ordered by container/heap on the full key (at, lineage, token, seq), each
// event holding its whole lineage. The engine (time-keyed heap entries,
// shared lineage records) must match it operation for operation.
type refEvent struct {
	at    Time
	lin   Lineage
	tok   Token
	seq   uint64
	id    int
	index int
}

// refHeap also counts what settled each comparison that got past the
// firing time, so the test can require every part of the key to be used.
type refHeap struct {
	evs []*refEvent

	atTies          int // comparisons that reached the lineage
	deepLineage     int // settled by a lineage element below the schedule time
	tokenAgainstSeq int // settled by the token, in the opposite order to seq
	seqOnly         int // full lineage and token tie, settled by seq
}

func (h *refHeap) Len() int { return len(h.evs) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	h.atTies++
	for k := range a.lin {
		if a.lin[k] != b.lin[k] {
			if k > 0 {
				h.deepLineage++
			}
			return a.lin[k] < b.lin[k]
		}
	}
	if a.tok != b.tok {
		if a.tok.Less(b.tok) != (a.seq < b.seq) {
			h.tokenAgainstSeq++
		}
		return a.tok.Less(b.tok)
	}
	h.seqOnly++
	return a.seq < b.seq
}
func (h *refHeap) Swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.evs[i].index = i
	h.evs[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(h.evs)
	h.evs = append(h.evs, e)
}
func (h *refHeap) Pop() any {
	n := len(h.evs)
	e := h.evs[n-1]
	h.evs[n-1] = nil
	e.index = -1
	h.evs = h.evs[:n-1]
	return e
}

// refEngine is the minimal reference scheduler, with the engine's
// scheduling context (clock, current lineage and token).
type refEngine struct {
	now    Time
	seq    uint64
	cur    Lineage
	curTok Token
	events refHeap
}

// child is the reference ChildLineage.
func (r *refEngine) child() Lineage {
	var l Lineage
	l[0] = r.now
	copy(l[1:], r.cur[:LineageDepth-1])
	return l
}

func (r *refEngine) schedule(at Time, lin Lineage, tok Token, id int) *refEvent {
	e := &refEvent{at: at, lin: lin, tok: tok, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.events, e)
	return e
}

func (r *refEngine) cancel(e *refEvent) {
	if e != nil && e.index >= 0 {
		heap.Remove(&r.events, e.index)
	}
}

func (r *refEngine) pop() *refEvent {
	e := heap.Pop(&r.events).(*refEvent)
	r.now, r.cur, r.curTok = e.at, e.lin, e.tok
	return e
}

// lockstep runs the engine and the reference in lockstep: every
// operation is applied to both at once, and every engine callback pops the
// reference and requires the same event. Callbacks themselves schedule,
// cancel and re-arm timers, so the shared child record, its invalidation
// and record recycling are all exercised from inside events too.
type lockstep struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	eng    *Engine
	ref    refEngine
	nextID int
	fired  int // events fired so far

	handles []lockstepHandle
	timers  []lockstepTimer

	// Full sibling groups seen at the checks whose least firing time is
	// shared (which siftDown settles by the full key) and unique (settled
	// by time alone).
	sharedGroups, uniqueGroups int
}

type lockstepHandle struct {
	ev  Event
	ref *refEvent
}

type lockstepTimer struct {
	tm  *Timer
	id  int // event id of the current arming
	ref *refEvent
}

func (d *lockstep) fire(id int) {
	if d.ref.events.Len() == 0 {
		d.t.Fatalf("seed %d: engine fired event %d, reference has nothing pending", d.seed, id)
	}
	if want := d.ref.pop().id; want != id {
		d.t.Fatalf("seed %d: divergence at position %d: got event %d, reference %d", d.seed, d.fired, id, want)
	}
	d.fired++
	// An event acts 0, 0, 1 or 2 times (siblings share a record): under one
	// new event per firing on average, so the population stays bounded.
	for i := d.rng.Intn(4) - 2; i >= 0; i-- {
		d.act()
	}
}

func (d *lockstep) fireArg(a any) { d.fire(a.(int)) }

// delay draws from a small domain so firing times collide often.
func (d *lockstep) delay() Duration { return Duration(d.rng.Intn(6)) }

// token draws one of four tokens, the zero token included.
func (d *lockstep) token() Token {
	return Token{uint64(d.rng.Intn(2)), uint64(d.rng.Intn(2))}
}

// lineage draws an explicit lineage near the current child lineage, the
// key a cross-engine handoff carries: the child lineage itself (a full tie
// with local children), one with a single element backdated at a random
// depth, or a flat lineage from a three-value palette.
func (d *lockstep) lineage() Lineage {
	l := d.ref.child()
	switch d.rng.Intn(3) {
	case 1:
		if k := d.rng.Intn(LineageDepth); l[k] > 0 {
			l[k]--
		}
	case 2:
		v := Time(d.rng.Intn(3))
		for k := range l {
			l[k] = v
		}
	}
	return l
}

func (d *lockstep) newID() int {
	d.nextID++
	return d.nextID
}

// act applies one random scheduling operation to both engines.
func (d *lockstep) act() {
	now := d.ref.now
	switch r := d.rng.Intn(12); {
	case r < 3: // child, closure form
		id, at := d.newID(), now+Time(d.delay())
		ev := d.eng.Schedule(at, func() { d.fire(id) })
		d.handles = append(d.handles, lockstepHandle{ev, d.ref.schedule(at, d.ref.child(), Token{}, id)})
	case r < 5: // child, arg form with a token
		id, dt, tok := d.newID(), d.delay(), d.token()
		ev := d.eng.AfterArgToken(dt, tok, d.fireArg, id)
		d.handles = append(d.handles, lockstepHandle{ev, d.ref.schedule(now+Time(dt), d.ref.child(), tok, id)})
	case r < 6: // explicit lineage, no token
		id, at, lin := d.newID(), now+Time(d.delay()), d.lineage()
		ev := d.eng.ScheduleLineage(at, lin, func() { d.fire(id) })
		d.handles = append(d.handles, lockstepHandle{ev, d.ref.schedule(at, lin, Token{}, id)})
	case r < 8: // explicit lineage and token
		id, at, lin, tok := d.newID(), now+Time(d.delay()), d.lineage(), d.token()
		ev := d.eng.ScheduleArgKey(at, &lin, tok, d.fireArg, id)
		d.handles = append(d.handles, lockstepHandle{ev, d.ref.schedule(at, lin, tok, id)})
	case r < 10: // cancel (a no-op on both sides if the event already ran)
		if len(d.handles) == 0 {
			return
		}
		i := d.rng.Intn(len(d.handles))
		d.eng.Cancel(d.handles[i].ev)
		d.ref.cancel(d.handles[i].ref)
		d.handles[i] = d.handles[len(d.handles)-1]
		d.handles = d.handles[:len(d.handles)-1]
	default: // re-arm a timer
		tm := &d.timers[d.rng.Intn(len(d.timers))]
		id, dt := d.newID(), d.delay()
		tm.id = id
		tm.tm.Reset(dt)
		d.ref.cancel(tm.ref)
		tm.ref = d.ref.schedule(now+Time(dt), d.ref.child(), Token{}, id)
	}
}

// topLevel applies one random operation between steps.
func (d *lockstep) topLevel() {
	switch r := d.rng.Intn(20); {
	case r < 10:
		d.act()
	case r < 15:
		for i := d.rng.Intn(3); i >= 0; i-- {
			if had := d.ref.events.Len() > 0; d.eng.Step() != had {
				d.t.Fatalf("seed %d: engines disagree on whether events remain", d.seed)
			}
		}
	case r < 17: // the shard group's control-event alignment
		lin, tok := d.lineage(), d.token()
		d.eng.SetContext(lin, tok)
		d.ref.cur, d.ref.curTok = lin, tok
	case r < 19:
		t := d.ref.now + Time(d.delay())
		if d.ref.events.Len() > 0 && d.ref.events.evs[0].at < t {
			t = d.ref.events.evs[0].at
		}
		d.eng.SetNow(t)
		d.ref.now = t
	default:
		t := d.ref.now + Time(d.delay())
		d.eng.RunUntil(t)
		if d.ref.events.Len() > 0 && d.ref.events.evs[0].at <= t {
			d.t.Fatalf("seed %d: RunUntil(%v) left reference event at %v", d.seed, t, d.ref.events.evs[0].at)
		}
		if d.ref.now < t {
			d.ref.now = t
		}
	}
}

// check compares the observable engine state with the reference.
func (d *lockstep) check(op int) {
	e, r := d.eng, &d.ref
	if e.Pending() != r.events.Len() {
		d.t.Fatalf("seed %d op %d: pending %d vs reference %d", d.seed, op, e.Pending(), r.events.Len())
	}
	if e.Now() != r.now {
		d.t.Fatalf("seed %d op %d: now %v vs reference %v", d.seed, op, e.Now(), r.now)
	}
	if e.CurrentLineage() != r.cur || e.CurrentToken() != r.curTok {
		d.t.Fatalf("seed %d op %d: current key differs from the reference", d.seed, op)
	}
	var child Lineage
	if e.ChildLineage(&child); child != r.child() {
		d.t.Fatalf("seed %d op %d: child lineage differs from the reference", d.seed, op)
	}
	if r.events.Len() > 0 {
		at, lin, tok, _ := e.PeekKey()
		h := r.events.evs[0]
		if at != h.at || lin != h.lin || tok != h.tok {
			d.t.Fatalf("seed %d op %d: PeekKey differs from the reference head", d.seed, op)
		}
	}
	checkRecords(d.t, e)
	d.countGroups()
}

// countGroups classifies every full group of four siblings in the engine's
// heap by whether its least firing time is shared.
func (d *lockstep) countGroups() {
	h := d.eng.heap
	for first := 1; first+4 <= len(h); first += 4 {
		least, n := h[first].at, 0
		for _, c := range h[first : first+4] {
			least = min(least, c.at)
		}
		for _, c := range h[first : first+4] {
			if c.at == least {
				n++
			}
		}
		if n > 1 {
			d.sharedGroups++
		} else {
			d.uniqueGroups++
		}
	}
}

// checkRecords requires every live lineage record's count to equal the
// references actually held: one per pending slot, one for the current
// record.
func checkRecords(t *testing.T, e *Engine) {
	t.Helper()
	held := make([]int32, len(e.lins))
	held[e.cur]++
	for _, h := range e.heap {
		held[e.slots[h.slot].lin]++
	}
	free := make([]bool, len(e.lins))
	for _, r := range e.linFree {
		free[r] = true
	}
	for r := range e.lins {
		if free[r] != (held[r] == 0) || (!free[r] && e.lins[r].refs != held[r]) {
			t.Fatalf("lineage record %d: refs %d, held %d, free %v", r, e.lins[r].refs, held[r], free[r])
		}
	}
}

// TestHeapMatchesReferenceOrder drives the engine and the reference
// scheduler through an identical random stream of schedule (child,
// tokened, explicit-lineage), cancel, timer re-arm, step, SetContext,
// SetNow and RunUntil operations, and requires every event to fire in the
// same order on both. Firing times, lineages and tokens come from small
// domains, so the stream is full of ties: the run fails unless comparisons
// were settled by a deep lineage element, by a token against seq order,
// and by seq alone, and unless the heap held full sibling groups both with
// a shared least firing time and with a unique one, the two routes of
// siftDown's selection. This pins the 4-ary heap and the shared lineage
// records to the full (at, lineage, token, seq) order.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		d := &lockstep{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), eng: New()}
		for i := 0; i < 4; i++ {
			i := i
			d.timers = append(d.timers, lockstepTimer{})
			d.timers[i].tm = NewTimer(d.eng, func() { d.fire(d.timers[i].id) })
		}
		for op := 0; op < 6000; op++ {
			d.topLevel()
			d.check(op)
		}
		for d.eng.Step() {
		}
		if d.ref.events.Len() != 0 {
			t.Fatalf("seed %d: engine drained with %d reference events pending", seed, d.ref.events.Len())
		}
		d.check(-1)
		if live := len(d.eng.lins) - len(d.eng.linFree); live > 1 {
			t.Errorf("seed %d: %d lineage records live after draining, want at most 1", seed, live)
		}
		h := &d.ref.events
		if h.atTies == 0 || h.deepLineage == 0 || h.tokenAgainstSeq == 0 || h.seqOnly == 0 {
			t.Errorf("seed %d: key coverage too thin: %d time ties, %d deep-lineage, %d token-against-seq, %d seq-only",
				seed, h.atTies, h.deepLineage, h.tokenAgainstSeq, h.seqOnly)
		}
		if d.sharedGroups == 0 || d.uniqueGroups == 0 {
			t.Errorf("seed %d: sibling groups too uniform: %d with a shared least time, %d with a unique one",
				seed, d.sharedGroups, d.uniqueGroups)
		}
		t.Logf("seed %d: %d fired, %d time ties, %d deep-lineage, %d token-against-seq, %d seq-only, %d/%d groups with a shared/unique least time",
			seed, d.fired, h.atTies, h.deepLineage, h.tokenAgainstSeq, h.seqOnly, d.sharedGroups, d.uniqueGroups)
	}
}

// TestHeapSlabRecycling checks that the slab actually recycles slots instead
// of growing without bound through a schedule/fire churn.
func TestHeapSlabRecycling(t *testing.T) {
	e := New()
	for i := 0; i < 10000; i++ {
		e.Schedule(e.Now()+1, func() {})
		e.Run()
	}
	if got := len(e.slots); got > 8 {
		t.Errorf("slab grew to %d slots under churn with <=1 pending event", got)
	}
}
