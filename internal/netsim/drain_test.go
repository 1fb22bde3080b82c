package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// arrivalLog is a destination node that logs the ID of every packet it
// receives, in firing order.
type arrivalLog struct{ got []uint64 }

func (l *arrivalLog) ID() packet.NodeID          { return 0 }
func (l *arrivalLog) Receive(pkt *packet.Packet) { l.got = append(l.got, pkt.ID) }

// drainCase is one cross-shard handoff of TestDrainCrossShardOrder: the
// source shard, the key it carries, and its place in the expected firing
// order.
type drainCase struct {
	src  int
	at   units.Duration // after the window's base time
	lin  sim.Lineage
	tok  sim.Token
	fire int
}

// drainCases lists the handoffs to one destination in the order each source
// emits them. Every tie the drain must settle appears across the two
// sources and within one source's emission order, and in every tie but the
// full one the key contradicts both. fire is the handoff's rank in (at,
// lineage, token, source shard, emission order).
func drainCases() []drainCase {
	lin := func(gens ...units.Time) (l sim.Lineage) {
		copy(l[:], gens)
		return l
	}
	deep := lin(5)
	deep[sim.LineageDepth-1] = 1 // differs from lin(5) in the last generation only
	tokA, tokB := sim.Token{0, 9}, sim.Token{1, 3}
	cs := []drainCase{
		// A tie on at: the lineage decides.
		{src: 0, at: 10, lin: lin(7), fire: 2},
		{src: 1, at: 10, lin: deep, fire: 1},
		{src: 1, at: 10, lin: lin(5), fire: 0},
		// A tie on (at, lineage): the token decides.
		{src: 0, at: 20, lin: lin(3), tok: sim.Token{1, 5}, fire: 5},
		{src: 1, at: 20, lin: lin(3), tok: tokB, fire: 4},
		{src: 1, at: 20, lin: lin(3), tok: tokA, fire: 3},
		// A tie on (at, lineage, token): the source shard decides.
		{src: 1, at: 30, lin: lin(3), tok: tokA, fire: 7},
		{src: 0, at: 30, lin: lin(3), tok: tokA, fire: 6},
		// Out of order within one source, and the least key last.
		{src: 0, at: 45, lin: lin(4), fire: 9},
		{src: 0, at: 40, lin: lin(4), fire: 8},
	}
	// Full ties: the source shard, then the emission order, decides. There
	// are enough of them, interleaved with other keys, that a sort that is
	// not stable reorders some.
	rank := len(cs)
	for src := 0; src < 2; src++ {
		for i := 0; i < 12; i++ {
			cs = append(cs, drainCase{src: src, at: 50, lin: lin(6), tok: tokB, fire: rank})
			rank++
		}
	}
	for src := 1; src >= 0; src-- {
		for i := 0; i < 6; i++ {
			cs = append(cs, drainCase{src: src, at: 60 - units.Duration(i), lin: lin(6), tok: tokB, fire: rank + 2*(5-i) + src})
		}
	}
	return cs
}

// TestDrainCrossShardOrder drives DrainCrossShard directly on a 3-shard
// network: shards 0 and 1 hand packets to shard 2, whose engine must fire
// them in (at, lineage, token, source shard, emission order), the order one
// serial engine gives them. Every handoff must pass the lookahead check and
// reach the OnCrossShardArrival hook, and a steady-state drain allocates
// nothing.
func TestDrainCrossShardOrder(t *testing.T) {
	const dst, shards = 2, 3
	engines := []*sim.Engine{sim.New(), sim.New(), sim.New()}
	n := NewSharded(engines)
	sink := &arrivalLog{}
	cases := drainCases()
	pkts := make([]packet.Packet, len(cases))
	want := make([]uint64, len(cases))
	for i, c := range cases {
		pkts[i].ID = uint64(i)
		want[c.fire] = uint64(i)
	}
	hooked := 0
	n.OnCrossShardArrival = func(to int, at, dstNow units.Time) {
		if to != dst || at < dstNow {
			t.Fatalf("hook saw a handoff to shard %d at %v with the destination at %v", to, at, dstNow)
		}
		hooked++
	}

	// cycle hands every case over, drains and runs the destination, and
	// returns the firing order. Each cycle starts after the last one's
	// arrivals, so it is the same drain at a later time.
	base := units.Time(0)
	cycle := func() []uint64 {
		for i := range cases {
			c := &cases[i]
			lane := dst*shards + c.src
			n.lanes[lane] = append(n.lanes[lane], laneEntry{
				at: base.Add(c.at), lin: c.lin, tok: c.tok, peer: sink, pkt: &pkts[i],
			})
		}
		sink.got = sink.got[:0]
		n.DrainCrossShard()
		engines[dst].Run()
		base = engines[dst].Now().Add(units.Microsecond)
		return sink.got
	}

	for round := 0; round < 3; round++ {
		if got := cycle(); !slices.Equal(got, want) {
			t.Fatalf("round %d: fired %v, want %v", round, got, want)
		}
		if hooked != (round+1)*len(cases) {
			t.Fatalf("round %d: hook saw %d handoffs, want %d", round, hooked, (round+1)*len(cases))
		}
		if n.PendingCrossShard() {
			t.Fatalf("round %d: handoffs left in the lanes", round)
		}
		for i, lane := range n.lanes {
			for _, e := range lane[:cap(lane)] {
				if e.peer != nil || e.pkt != nil {
					t.Fatalf("round %d: lane %d still references a drained handoff", round, i)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { cycle() }); allocs != 0 {
		t.Errorf("steady-state drain allocated %v times per cycle, want 0", allocs)
	}

	t.Run("lookahead violation", func(t *testing.T) {
		late := dst*shards + 1
		n.lanes[late] = append(n.lanes[late], laneEntry{at: base - 1, peer: sink, pkt: &pkts[0]})
		engines[dst].SetNow(base)
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "lookahead violation") {
				t.Fatalf("a handoff arriving before the destination's clock drained with panic %q", msg)
			}
		}()
		n.DrainCrossShard()
	})
}
