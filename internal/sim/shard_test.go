package sim

import (
	"slices"
	"testing"
)

// TestControlFlushOrder registers control events from two shards inside one
// parallel window and checks that the control engine fires them in (at,
// lineage, shard, arrival) order, the order one serial engine gives them.
// Ties on (at, lineage) appear across the shards and within one shard; the
// other keys contradict both.
func TestControlFlushOrder(t *testing.T) {
	lin := func(t0 Time) (l Lineage) {
		l[0] = t0
		return l
	}
	type reg struct {
		at   Time
		lin  Lineage
		name string
	}
	regs := [][]reg{
		{{50, lin(3), "a"}, {50, lin(2), "b"}, {50, lin(3), "c"}},
		{{50, lin(3), "d"}, {40, lin(9), "e"}, {50, lin(2), "f"}},
	}
	want := []string{"e", "b", "f", "a", "c", "d"}

	g := NewGroup([]*Engine{New(), New()}, 100)
	var got []string
	for shard, rs := range regs {
		g.Shards()[shard].Schedule(1, func() {
			if !g.InParallelWindow() {
				t.Error("registration outside a parallel window")
			}
			for _, r := range rs {
				g.ScheduleControl(shard, r.at, r.lin, func() { got = append(got, r.name) })
			}
		})
	}
	if out := g.RunLoop(func() bool { return len(got) == len(want) }, 0); out != RunDone {
		t.Fatalf("RunLoop = %v, want RunDone", out)
	}
	if !slices.Equal(got, want) {
		t.Errorf("control events fired %v, want %v", got, want)
	}
}
