package sim

import (
	"cmp"
	"math/rand"
	"testing"

	"repro/internal/units"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(300, func() { order = append(order, 3) })
	e.Schedule(100, func() { order = append(order, 1) })
	e.Schedule(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 300 {
		t.Errorf("final time = %v, want 300", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
	if ev.Fired() {
		t.Error("cancelled event reports Fired")
	}
	// Double cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(10+i), func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("executed %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Errorf("pending = %d, want 7", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("now = %v, want 25 (clock advanced to target)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %v after second RunUntil", fired)
	}
}

// TestDeadline bounds a run in time with RunUntil: an event at the deadline
// runs, one past it stays queued.
func TestDeadline(t *testing.T) {
	e := New()
	ran := 0
	for _, at := range []Time{10, 100, 1000} {
		e.Schedule(at, func() { ran++ })
	}
	e.RunUntil(100)
	if ran != 2 {
		t.Errorf("ran %d events, want 2 (the deadline blocks the third)", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New()
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Errorf("Executed = %d, want 5", e.Executed())
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10, func() {
		e.After(-5*units.Nanosecond, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Error("After with negative delay never fired")
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := New()
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(10)
	e.Run()
	if count != 1 {
		t.Errorf("timer fired %d times, want 1", count)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerReset(t *testing.T) {
	e := New()
	var at Time
	tm := NewTimer(e, func() { at = e.Now() })
	tm.Reset(10)
	e.Schedule(5, func() { tm.Reset(20) }) // re-arm to fire at 25
	e.Run()
	if at != 25 {
		t.Errorf("timer fired at %v, want 25 (reset postpones)", at)
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := NewTimer(e, func() { fired = true })
	tm.Reset(10)
	tm.Stop()
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	tm.Stop() // double stop is a no-op
}

func TestTimerDeadline(t *testing.T) {
	e := New()
	tm := NewTimer(e, func() {})
	tm.Reset(42)
	if !tm.Armed() {
		t.Fatal("timer not armed")
	}
	if tm.Deadline() != 42 {
		t.Errorf("deadline = %v, want 42", tm.Deadline())
	}
	tm.Stop()
	if tm.Deadline() != 0 {
		t.Errorf("deadline after stop = %v, want 0", tm.Deadline())
	}
}

// TestFiredIsNotCancelled is the regression for the old API, where a single
// state ("callback cleared") conflated "cancelled before firing" with
// "already executed". The two must be distinguishable.
func TestFiredIsNotCancelled(t *testing.T) {
	e := New()
	fired := e.Schedule(10, func() {})
	cancelled := e.Schedule(20, func() {})
	pending := e.Schedule(99999, func() {})
	e.Cancel(cancelled)
	e.RunUntil(100)

	if !fired.Fired() {
		t.Error("executed event: Fired() = false")
	}
	if fired.Cancelled() {
		t.Error("executed event reports Cancelled — the states are conflated again")
	}
	if fired.Pending() {
		t.Error("executed event still Pending")
	}

	if !cancelled.Cancelled() || cancelled.Fired() || cancelled.Pending() {
		t.Errorf("cancelled event states: Cancelled=%v Fired=%v Pending=%v, want true/false/false",
			cancelled.Cancelled(), cancelled.Fired(), cancelled.Pending())
	}

	if !pending.Pending() || pending.Fired() || pending.Cancelled() {
		t.Error("pending event must be exactly Pending")
	}

	// The zero handle is inert in every state query.
	var zero Event
	if zero.Pending() || zero.Fired() || zero.Cancelled() {
		t.Error("zero Event reports a state")
	}
}

// TestCancelSelfDuringCallback pins cancel-after-pop safety: a callback
// cancelling its own (currently firing) handle is a documented no-op, not a
// heap corruption.
func TestCancelSelfDuringCallback(t *testing.T) {
	e := New()
	var ev Event
	ran := false
	ev = e.Schedule(5, func() {
		ran = true
		e.Cancel(ev) // already off the heap; must be ignored
	})
	e.Schedule(10, func() {})
	e.Run()
	if !ran {
		t.Fatal("callback never ran")
	}
	if !ev.Fired() || ev.Cancelled() {
		t.Errorf("self-cancelled firing event: Fired=%v Cancelled=%v, want true/false",
			ev.Fired(), ev.Cancelled())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

// TestRescheduleAfterFire pins the reschedule-after-fire behavior: firing an
// event must not poison later schedulings, whether through the engine
// directly or through a Timer re-armed from its own callback.
func TestRescheduleAfterFire(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(10, func() { count++ })
	e.Run()

	again := e.Schedule(20, func() { count++ })
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (second scheduling after fire must run)", count)
	}
	if !again.Fired() {
		t.Error("second event not marked fired")
	}

	// A timer re-armed from inside its own callback keeps firing.
	fires := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		fires++
		if fires < 3 {
			tm.Reset(5)
		}
	})
	tm.Reset(5)
	e.Run()
	if fires != 3 {
		t.Errorf("self-rearming timer fired %d times, want 3", fires)
	}
	if tm.Armed() {
		t.Error("timer armed after its final firing")
	}
}

func TestManyEventsStress(t *testing.T) {
	e := New()
	const n = 100000
	count := 0
	// Insert in a scattered order via a simple LCG.
	seed := uint64(12345)
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		at := Time(seed % 1000000)
		e.Schedule(at, func() { count++ })
	}
	var last Time
	e.Schedule(1000001, func() { last = e.Now() })
	e.Run()
	if count != n {
		t.Errorf("executed %d, want %d", count, n)
	}
	if last != 1000001 {
		t.Errorf("last event at %v", last)
	}
}

// TestSteadyStateAllocatesNothing pins the event core at zero allocations
// per event once its slabs have grown: the hold model of
// BenchmarkEngineScheduleRun (every event schedules one child a uniform
// 1–64 µs later, every eighth re-arms one of 64 timers, cancelling its
// pending firing), plus an explicit schedule and cancel around each step.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const pending, timers = 640, 64
	eng := New()
	rng := rand.New(rand.NewSource(1))
	rto := make([]*Timer, timers)
	for i := range rto {
		rto[i] = NewTimer(eng, func() {})
	}
	fired := 0
	var tick func(any)
	tick = func(any) {
		eng.AfterArg(units.Duration(1+rng.Intn(64_000))*units.Nanosecond, tick, nil)
		if fired++; fired%8 == 0 {
			rto[fired/8%timers].Reset(10 * units.Millisecond)
		}
	}
	for i := 0; i < pending; i++ {
		eng.AfterArg(units.Duration(1+rng.Intn(64_000))*units.Nanosecond, tick, nil)
	}
	step := func() {
		ev := eng.After(units.Millisecond, func() {})
		eng.Step()
		eng.Cancel(ev)
	}
	for i := 0; i < 16*pending; i++ { // grow the slabs to steady state
		step()
	}
	if n := testing.AllocsPerRun(10*pending, step); n != 0 {
		t.Errorf("steady-state event allocates %v times, want 0", n)
	}
	if fired < 20*pending {
		t.Fatalf("hold model stalled after %d events", fired)
	}
}

// TestCompareAgreesWithLess checks the key comparisons the event order
// uses, Lineage.Compare and Token.Less, against keys listed in ascending
// order, lineages among them that tie on long prefixes.
func TestCompareAgreesWithLess(t *testing.T) {
	one := func(d int, v Time) (l Lineage) {
		l[d] = v
		return l
	}
	ones := func(last Time) (l Lineage) {
		for i := range l {
			l[i] = 1
		}
		l[LineageDepth-1] = last
		return l
	}
	ls := []Lineage{{}, one(LineageDepth-1, 1), one(LineageDepth-1, 2), one(1, 1), one(1, 2),
		one(0, 1), ones(0), ones(1), ones(2), one(0, 2)}
	for i := range ls {
		for j := range ls {
			if got, want := ls[i].Compare(&ls[j]), cmp.Compare(i, j); got != want {
				t.Errorf("lineage %d Compare lineage %d = %d, want %d", i, j, got, want)
			}
		}
	}
	toks := []Token{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, a := range toks {
		for j, b := range toks {
			if got := a.Less(b); got != (i < j) {
				t.Errorf("Token%v.Less(%v) = %v, want %v", a, b, got, i < j)
			}
		}
	}
}
