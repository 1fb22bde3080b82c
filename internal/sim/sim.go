// Package sim implements the discrete-event simulation engine that drives
// every other component in this repository. It plays the role NS-2's
// scheduler played in the paper's methodology: components schedule callbacks
// at absolute simulated times and the engine executes them in time order.
//
// The engine is single-threaded and fully deterministic. Events execute in
// the total order (at, lineage, token, seq): firing time, then causal
// history (see Lineage), then a content-derived tie-break (see Token), then
// scheduling order. In a serial run without tokens that is plain FIFO within
// an instant, which makes runs reproducible bit-for-bit given the same seed
// and configuration.
//
// The hot path is allocation-free in steady state. Pending events live in a
// slab of reusable slots ordered by a 4-ary heap: about half the levels of
// a binary heap, with the four children of a node in 64 contiguous bytes.
// (Those bytes are not aligned to a cache line: a group starts at entry
// 4i+1 of 16-byte entries, so it usually spans two lines.) Each heap entry
// carries its event's firing time beside the slot index, so a sift compares
// times without touching the slab and reads a slot only on a tie; a
// sift-down picks the least of four children by time with conditional
// moves, and uses the full key only when that time is shared (see
// siftDown). Lineages live in a slab of reference-counted
// records: every child one event schedules shares a single record, so a
// schedule copies no lineage. Schedule hands out generation-counted Event
// handles — plain values, never heap-allocated — so Cancel on a stale handle
// is detected instead of corrupting a recycled slot.
package sim

import (
	"cmp"
	"fmt"

	"repro/internal/units"
)

// Time is re-exported from units for convenience.
type Time = units.Time

// Duration is re-exported from units for convenience.
type Duration = units.Duration

// slotState tracks what became of a slot's current scheduling.
type slotState uint8

const (
	slotFree      slotState = iota // never scheduled (fresh slab slot)
	slotPending                    // in the heap, waiting to fire
	slotFired                      // callback executed
	slotCancelled                  // removed by Cancel before firing
)

// LineageDepth is the causal-history depth of an event's ordering key: the
// event's own schedule time plus the schedule times of its LineageDepth-1
// nearest ancestors (the ancestor chain of "event that scheduled the event").
// Deeper history resolves more cross-shard timestamp ties; see Lineage.
const LineageDepth = 32

// Lineage is the causal-history component of an event's ordering key:
// Lineage[0] is the engine time the event was scheduled at (the classic
// FIFO-within-instant key), Lineage[i] the schedule time of its i-th
// ancestor. Events compare by (at, Lineage, Token, seq).
//
// Why history and not just the schedule time: two events on different shards
// can carry the same (at, schedule time) — lockstep transfers over
// identical links produce exact timestamp collisions — and a single serial
// engine breaks that tie by seq, i.e. by the execution order of the events'
// parents, recursively. The ancestor schedule times materialize a bounded
// prefix of exactly that recursion, so the sharded run can reproduce the
// serial order without a global counter. Ties that survive LineageDepth
// levels fall back to the engine-local seq.
type Lineage [LineageDepth]Time

// Compare returns -1, 0 or +1 as l sorts before, with or after m. It takes
// both lineages by reference, so a comparison copies neither.
func (l *Lineage) Compare(m *Lineage) int {
	for i := range l {
		if l[i] != m[i] {
			return cmp.Compare(l[i], m[i])
		}
	}
	return 0
}

// Token is the content-derived tie-break of an event's ordering key,
// compared after the lineage and before the engine-local seq. It exists for
// the ties lineage cannot resolve: two phase-locked periodic event chains
// (self-clocked transfers in lockstep) can agree on (at, Lineage) at ANY
// bounded history depth, because the serial engine's order between them was
// fixed thousands of events ago and is carried forward only by scheduling
// order. A token derived from the event's payload (for packet arrivals: the
// flow endpoints and header fields) is layout-independent, so serial and
// sharded engines resolve the residual tie identically. The zero Token is
// "no token": events without one sort before tokened events at a full
// lineage tie, which is itself deterministic.
type Token [2]uint64

// Less reports lexicographic order.
func (t Token) Less(u Token) bool {
	if t[0] != u[0] {
		return t[0] < u[0]
	}
	return t[1] < u[1]
}

// slot is one slab entry. A slot is recycled (through the free list) only
// after its event fired or was cancelled; gen increments on every reuse so
// stale handles can tell. The firing time lives in the slot's heap entry.
type slot struct {
	tok   Token // content-derived residual tie-break (see Token)
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	lin   int32 // lineage record index (see linRec)
	gen   uint32
	state slotState
}

// heapEntry is one element of the event heap: a pending slot and its firing
// time, which settles almost every comparison on its own.
type heapEntry struct {
	at   Time
	slot int32
}

// linRec is one entry of the lineage record slab. A record is shared by
// reference: every pending slot holds one reference to its record, and the
// engine holds one to the record of the event currently executing. A record
// whose count drops to zero returns to the free list.
type linRec struct {
	lin  Lineage
	refs int32
}

// Event is a generation-counted handle to a scheduled callback. It is a
// plain value (copy freely; the zero value is an inert non-event). State
// queries are exact until the engine recycles the underlying slot for a new
// event, which can only happen after this event has fired or been cancelled;
// a handle whose slot was recycled reports false for Pending, Fired and
// Cancelled alike.
type Event struct {
	eng  *Engine
	slot int32 // slot index + 1; 0 marks the zero handle
	gen  uint32
	at   Time
}

// At returns the simulated time the event fires (or fired) at. It is stored
// in the handle, so it remains valid forever.
func (e Event) At() Time { return e.at }

// state resolves the handle against its slot; ok is false for the zero
// handle and for handles whose slot has been recycled.
func (e Event) state() (slotState, bool) {
	if e.slot == 0 {
		return slotFree, false
	}
	s := &e.eng.slots[e.slot-1]
	if s.gen != e.gen {
		return slotFree, false
	}
	return s.state, true
}

// Pending reports whether the event is still scheduled to fire.
func (e Event) Pending() bool {
	st, ok := e.state()
	return ok && st == slotPending
}

// Fired reports whether the event's callback executed. It is false for a
// cancelled event — firing and cancellation are distinct outcomes.
func (e Event) Fired() bool {
	st, ok := e.state()
	return ok && st == slotFired
}

// Cancelled reports whether the event was cancelled before firing. An event
// that already executed is NOT cancelled — use Fired for that.
func (e Event) Cancelled() bool {
	st, ok := e.state()
	return ok && st == slotCancelled
}

// Engine is a discrete-event scheduler.
type Engine struct {
	now      Time
	seq      uint64
	slots    []slot
	pos      []int32     // heap position of each pending slot, indexed like slots
	heap     []heapEntry // 4-ary min-heap on (at, lineage, token, seq)
	free     []int32     // recycled slot indices
	lins     []linRec    // lineage records (see linRec)
	linFree  []int32     // recycled record indices
	cur      int32       // record of the event currently executing (see CurrentLineage)
	child    int32       // record of ChildLineage once built, else -1 (see childRec)
	curTok   Token       // token of the event currently executing (see CurrentToken)
	executed uint64
	stopped  bool
}

// New returns an empty engine at time zero. Record 0 holds the zero lineage,
// the current record until the first event executes.
func New() *Engine {
	return &Engine{lins: []linRec{{refs: 1}}, child: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// ChildLineage writes into l the lineage a child scheduled right now
// inherits: the current time, then the executing event's own lineage
// shifted one generation down. This is also the key a cross-engine handoff
// must carry to re-enter the order a direct schedule would have produced;
// a handoff writes it straight into its own entry.
func (e *Engine) ChildLineage(l *Lineage) {
	l[0] = e.now
	copy(l[1:], e.lins[e.cur].lin[:LineageDepth-1])
}

// newRec claims a lineage record with no references; the caller fills it.
func (e *Engine) newRec() int32 {
	if n := len(e.linFree); n > 0 {
		r := e.linFree[n-1]
		e.linFree = e.linFree[:n-1]
		return r
	}
	e.lins = append(e.lins, linRec{})
	return int32(len(e.lins) - 1)
}

// dropRec releases one reference to record r.
func (e *Engine) dropRec(r int32) {
	rec := &e.lins[r]
	if rec.refs--; rec.refs == 0 {
		if r == e.child {
			e.child = -1
		}
		e.linFree = append(e.linFree, r)
	}
}

// childRec returns the record holding ChildLineage, building it on first
// use. Every child of the executing event shares it, so it is valid until
// the clock or the current record changes; whatever changes either resets
// e.child. The cache holds no reference of its own: only alloc calls this,
// and its slot takes the first reference at once. A record whose children
// were all cancelled is freed, and dropRec forgets it.
func (e *Engine) childRec() int32 {
	if e.child < 0 {
		r := e.newRec()
		e.ChildLineage(&e.lins[r].lin)
		e.child = r
	}
	return e.child
}

// keyRec returns a fresh record holding lin, for the explicit-key paths.
func (e *Engine) keyRec(lin *Lineage) int32 {
	r := e.newRec()
	e.lins[r].lin = *lin
	return r
}

// checkAt panics when at lies in the past.
func (e *Engine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
}

// alloc claims a slot for a child of the executing event and returns its
// index.
func (e *Engine) alloc(at Time, tok Token) int32 {
	e.checkAt(at)
	return e.push(at, e.childRec(), tok)
}

// allocKey is alloc with an explicit lineage. The lineage may lie in the
// past (a cross-engine handoff backdating an arrival to its send time); at
// may not.
func (e *Engine) allocKey(at Time, lin *Lineage, tok Token) int32 {
	e.checkAt(at)
	return e.push(at, e.keyRec(lin), tok)
}

// push fills a free slot with the key (at, record rec, tok, next seq) and
// queues it. The slot takes a reference to rec.
func (e *Engine) push(at Time, rec int32, tok Token) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		e.pos = append(e.pos, 0)
		idx = int32(len(e.slots) - 1)
	}
	e.lins[rec].refs++
	s := &e.slots[idx]
	s.gen++
	s.lin = rec
	s.tok = tok
	s.seq = e.seq
	s.state = slotPending
	e.seq++
	e.heapPush(heapEntry{at: at, slot: idx})
	return idx
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it is
// always a logic error in a discrete-event model.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	idx := e.alloc(at, Token{})
	e.slots[idx].fn = fn
	return Event{eng: e, slot: idx + 1, gen: e.slots[idx].gen, at: at}
}

// ScheduleArg runs fn(arg) at absolute time at. Unlike Schedule with a
// closure over arg, this allocates nothing when fn is a predeclared function
// value and arg is a pointer — the hot-path form used by the packet fabric.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Event {
	return e.scheduleArg(at, Token{}, fn, arg)
}

// scheduleArg is ScheduleArg with a residual-tie token.
func (e *Engine) scheduleArg(at Time, tok Token, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	idx := e.alloc(at, tok)
	s := &e.slots[idx]
	s.argFn = fn
	s.arg = arg
	return Event{eng: e, slot: idx + 1, gen: s.gen, at: at}
}

// ScheduleLineage runs fn at absolute time at, ordered among same-instant
// events by the given backdated lineage. It is the cross-engine handoff
// primitive of the sharded loop: a barrier drain re-schedules an arrival on
// the destination shard after the fact, and the sender-captured lineage
// (its ChildLineage at send time) restores the position the event would
// have held had the sender scheduled it directly.
func (e *Engine) ScheduleLineage(at Time, lin Lineage, fn func()) Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	idx := e.allocKey(at, &lin, Token{})
	e.slots[idx].fn = fn
	return Event{eng: e, slot: idx + 1, gen: e.slots[idx].gen, at: at}
}

// ScheduleArgKey is ScheduleLineage in the allocation-free arg form (see
// ScheduleArg), with an explicit residual-tie token (see Token). The packet
// fabric passes a content-derived token for every propagation event, local
// or cross-shard, so both paths order residual lineage ties the same way.
// The lineage is read once, into the event's record; the engine keeps no
// reference to *lin.
func (e *Engine) ScheduleArgKey(at Time, lin *Lineage, tok Token, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	idx := e.allocKey(at, lin, tok)
	s := &e.slots[idx]
	s.argFn = fn
	s.arg = arg
	return Event{eng: e, slot: idx + 1, gen: s.gen, at: at}
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterArg runs fn(arg) d after the current time (see ScheduleArg).
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArg(e.now.Add(d), fn, arg)
}

// AfterArgToken is AfterArg with a residual-tie token (see Token): the
// child inherits the usual ChildLineage but carries a content-derived final
// tie-break. It is the local-scheduling twin of the cross-shard
// ScheduleArgKey path.
func (e *Engine) AfterArgToken(d Duration, tok Token, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.scheduleArg(e.now.Add(d), tok, fn, arg)
}

// Cancel removes a scheduled event. Cancelling the zero Event, an event that
// already fired or was already cancelled, or a stale handle whose slot was
// recycled is a no-op.
func (e *Engine) Cancel(ev Event) {
	if ev.slot == 0 || ev.eng != e {
		return
	}
	idx := ev.slot - 1
	s := &e.slots[idx]
	if s.gen != ev.gen || s.state != slotPending {
		return
	}
	e.heapRemove(int(e.pos[idx]))
	e.dropRec(s.lin)
	e.release(idx, slotCancelled)
}

// release clears a slot's callback and returns it to the free list.
func (e *Engine) release(idx int32, outcome slotState) {
	s := &e.slots[idx]
	s.state = outcome
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	e.free = append(e.free, idx)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event. It reports false, and
// executes nothing, when no event is pending.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.heapPopRoot()
	idx := top.slot
	s := &e.slots[idx]
	e.now = top.at
	// The slot's record reference passes to the engine.
	e.dropRec(e.cur)
	e.cur = s.lin
	e.child = -1
	e.curTok = s.tok
	fn, argFn, arg := s.fn, s.argFn, s.arg
	e.executed++
	// Mark fired before invoking: a callback cancelling its own handle must
	// be a no-op (Cancel's guard sees non-pending), not a heap corruption.
	// The slot is recycled only after the callback returns, so the firing
	// event's own handle stays accurate inside its callback.
	s.state = slotFired
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
	e.release(idx, slotFired)
	return true
}

// Run executes events until none remain or Stop is called. It returns the
// final simulated time. Bound a run in time with RunUntil, or with
// Group.RunLoop's deadline.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t (if it is in the future). It returns the final time, t.
func (e *Engine) RunUntil(t Time) Time {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
		e.child = -1
	}
	return e.now
}

// CurrentLineage returns the lineage of the event currently (or most
// recently) executing. The sharded observer replay uses it to merge
// per-shard observations back into the serial engine's order.
func (e *Engine) CurrentLineage() Lineage { return e.lins[e.cur].lin }

// CurrentToken returns the token of the event currently (or most recently)
// executing, the residual-tie companion of CurrentLineage.
func (e *Engine) CurrentToken() Token { return e.curTok }

// PeekKey returns the ordering key (at, lineage, token) of the earliest
// pending event. ok is false when nothing is pending.
func (e *Engine) PeekKey() (at Time, lin Lineage, tok Token, ok bool) {
	if len(e.heap) == 0 {
		return 0, Lineage{}, Token{}, false
	}
	l, t := e.headKey()
	return e.heap[0].at, *l, t, true
}

// head returns the firing time of the earliest pending event; ok is false
// when nothing is pending.
func (e *Engine) head() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// headKey returns the lineage and token of the earliest pending event in
// place: the lineage points into the record slab and is valid until the
// engine next schedules. The heap must not be empty.
func (e *Engine) headKey() (*Lineage, Token) {
	s := &e.slots[e.heap[0].slot]
	return &e.lins[s.lin].lin, s.tok
}

// headTailLess reports whether e's earliest pending event sorts before f's
// by (lineage, token), the key tail that decides between heads firing at
// the same time. Neither heap may be empty.
func headTailLess(e, f *Engine) bool {
	le, te := e.headKey()
	lf, tf := f.headKey()
	if c := le.Compare(lf); c != 0 {
		return c < 0
	}
	return te.Less(tf)
}

// SetContext primes the scheduling context (current lineage and token)
// without executing an event. The shard group aligns every shard engine on
// the control event about to execute, so anything that event schedules on a
// shard engine derives the same child lineage a single serial engine would
// have produced (where the control event IS the last event executed).
func (e *Engine) SetContext(lin Lineage, tok Token) {
	e.setContext(&lin, tok)
}

// setContext is SetContext reading the lineage in place.
func (e *Engine) setContext(lin *Lineage, tok Token) {
	r := e.keyRec(lin)
	e.lins[r].refs = 1
	e.dropRec(e.cur)
	e.cur = r
	e.child = -1
	e.curTok = tok
}

// SetNow advances the clock to t without executing anything. It is used by
// the shard group to align every engine on a globally-serialized event's
// timestamp before executing it. Moving the clock backwards, or past the
// earliest pending event, panics.
func (e *Engine) SetNow(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: SetNow(%v) before now %v", t, e.now))
	}
	if len(e.heap) > 0 {
		if head := e.heap[0].at; head < t {
			panic(fmt.Sprintf("sim: SetNow(%v) past pending event at %v", t, head))
		}
	}
	e.now = t
	e.child = -1
}

// RunWindow executes every pending event with timestamp strictly below
// horizon and returns the number executed. The clock is left at the last
// executed event (it does NOT advance to horizon: the next window recomputes
// its own start from the global minimum). This is the per-shard body of one
// conservative-lookahead round; events scheduled during the window with
// timestamps below horizon execute in the same call.
func (e *Engine) RunWindow(horizon Time) int {
	n := 0
	for len(e.heap) > 0 && e.heap[0].at < horizon {
		e.Step()
		n++
	}
	return n
}

// ----------------------------------------------------------------------
// 4-ary heap of (at, slot) entries, ordered by (at, lineage, token, seq).

// heapLess orders entries by firing time, then by causal lineage, then by
// content token, then FIFO. The time is in the entry itself; the rest of
// the key is read from the slab only on a tie.
//
// In a single-engine run (at, lineage, seq) orders identically to the
// historical (at, seq), so serial runs are bit-for-bit unchanged. Proof
// sketch, by induction over execution: among events sharing at, lineage[0]
// (the schedule time) is non-decreasing in seq because the clock is
// monotone; among events also sharing lineage[0] — all scheduled at that
// same instant — the parents executed at that instant in (at, lineage, seq)
// order, their lineages were therefore lexicographically non-decreasing,
// and each child's lineage tail is its parent's lineage truncated, which
// preserves non-strict order. Siblings of one parent share the whole
// lineage and keep their emission (seq) order. So lineage never contradicts
// seq serially; it only refines ties for cross-shard handoffs, which use a
// sender-captured lineage to re-enter the order they would have held under
// a single engine.
//
// The token CAN contradict seq — deliberately. It only compares when the
// full lineage ties, i.e. between event chains whose causal histories are
// time-identical for LineageDepth generations (phase-locked periodic
// traffic). For those the pre-token serial order was an accident of
// scheduling order anyway; the token replaces it with a content-derived
// order that serial and sharded runs compute identically.
func (e *Engine) heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return e.tieLess(a.slot, b.slot)
}

// tieLess orders two slots firing at the same time by (lineage, token,
// seq). Siblings share a record, so equal record indices skip the lineage
// walk.
func (e *Engine) tieLess(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.lin != sb.lin {
		la, lb := &e.lins[sa.lin].lin, &e.lins[sb.lin].lin
		for i := range la {
			if la[i] != lb[i] {
				return la[i] < lb[i]
			}
		}
	}
	if sa.tok != sb.tok {
		return sa.tok.Less(sb.tok)
	}
	return sa.seq < sb.seq
}

// heapPush appends an entry and restores the heap property.
func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	e.siftUp(len(e.heap)-1, x)
}

// heapPopRoot removes the minimum entry.
func (e *Engine) heapPopRoot() {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0, x)
	}
}

// heapRemove deletes the entry at heap position p.
func (e *Engine) heapRemove(p int) {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if p == last {
		return
	}
	if p > 0 && e.heapLess(x, e.heap[(p-1)>>2]) {
		e.siftUp(p, x)
	} else {
		e.siftDown(p, x)
	}
}

// siftUp places x, which belongs at or above position i, maintaining the
// back-links of every entry it moves.
func (e *Engine) siftUp(i int, x heapEntry) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !e.heapLess(x, p) {
			break
		}
		h[i] = p
		e.pos[p.slot] = int32(i)
		i = parent
	}
	h[i] = x
	e.pos[x.slot] = int32(i)
}

// siftDown places x, which belongs at or below position i, maintaining the
// back-links of every entry it moves.
//
// A full group of four children is settled by firing time alone, with
// conditional moves instead of branches: the two pair winners, then the
// winner of those. Only when two or more children share that least time
// does the full key pick among the four. Under the full key the least child
// is unique, so both routes pick the same one. The one partial group at the
// end of the heap compares by the full key throughout.
func (e *Engine) siftDown(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			best += e.leastOfFour((*[4]heapEntry)(h[first:]))
		} else {
			best += e.leastByKey(h[first:])
		}
		b := h[best]
		if !e.heapLess(b, x) {
			break
		}
		h[i] = b
		e.pos[b.slot] = int32(i)
		i = best
	}
	h[i] = x
	e.pos[x.slot] = int32(i)
}

// leastOfFour returns the index in c of the least of four sibling entries
// (see siftDown).
func (e *Engine) leastOfFour(c *[4]heapEntry) int {
	a0, a1, a2, a3 := c[0].at, c[1].at, c[2].at, c[3].at
	k01 := 0
	if a1 < a0 {
		k01 = 1
	}
	k23 := 2
	if a3 < a2 {
		k23 = 3
	}
	m01, m23 := min(a0, a1), min(a2, a3)
	k := k01
	if m23 < m01 {
		k = k23
	}
	m := min(m01, m23)
	ties := 0
	if a0 == m {
		ties++
	}
	if a1 == m {
		ties++
	}
	if a2 == m {
		ties++
	}
	if a3 == m {
		ties++
	}
	if ties > 1 {
		return e.leastByKey(c[:])
	}
	return k
}

// leastByKey returns the index in c of its least entry by the full key.
func (e *Engine) leastByKey(c []heapEntry) int {
	k := 0
	for j := 1; j < len(c); j++ {
		if e.heapLess(c[j], c[k]) {
			k = j
		}
	}
	return k
}

// ----------------------------------------------------------------------
// Timer

// Timer is a restartable one-shot timer bound to an engine, in the style of
// time.Timer but in simulated time. It is the building block for TCP's RTO
// and delayed-ACK timers. The wrapper callback is created once, so Reset
// allocates nothing.
type Timer struct {
	eng  *Engine
	ev   Event
	fn   func()
	wrap func()
}

// NewTimer returns a stopped timer that will run fn when it fires.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	t := &Timer{eng: eng, fn: fn}
	t.wrap = func() {
		t.ev = Event{} // disarm before the callback so it may Reset
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire d from now, cancelling any pending firing.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.ev = t.eng.After(d, t.wrap)
}

// Stop disarms the timer if it is pending.
func (t *Timer) Stop() {
	if t.ev.slot != 0 {
		t.eng.Cancel(t.ev)
		t.ev = Event{}
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev.slot != 0 }

// Deadline returns the pending firing time; valid only if Armed.
func (t *Timer) Deadline() Time {
	if t.ev.slot == 0 {
		return 0
	}
	return t.ev.At()
}
