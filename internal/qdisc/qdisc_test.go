package qdisc

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/units"
)

// mkData returns an ECT-capable data packet (as an ECN sender emits).
func mkData(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Flags: packet.FlagACK, Payload: 1460, ECN: packet.ECT0}
}

// mkPlainData returns a non-ECT data packet (plain TCP).
func mkPlainData(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Flags: packet.FlagACK, Payload: 1460}
}

// mkAck returns a pure ACK (never ECT).
func mkAck(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Flags: packet.FlagACK, Wire: 40}
}

// mkEceAck returns a pure ACK carrying the ECN-Echo flag.
func mkEceAck(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Flags: packet.FlagACK | packet.FlagECE, Wire: 40}
}

// mkSyn returns an ECN-setup SYN (ECE|CWR on the TCP header, Non-ECT IP).
func mkSyn(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Flags: packet.FlagSYN | packet.FlagECE | packet.FlagCWR, Wire: 40}
}

func TestFIFOOrdering(t *testing.T) {
	f := newFIFO(4)
	for i := 0; i < 100; i++ {
		f.push(mkData(uint64(i)))
	}
	for i := 0; i < 100; i++ {
		p := f.pop()
		if p == nil || p.ID != uint64(i) {
			t.Fatalf("pop %d: got %v", i, p)
		}
	}
	if f.pop() != nil {
		t.Error("pop on empty returned a packet")
	}
}

func TestFIFOInterleavedGrowth(t *testing.T) {
	f := newFIFO(2)
	next, expect := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			f.push(mkData(next))
			next++
		}
		for i := 0; i < 2; i++ {
			p := f.pop()
			if p.ID != expect {
				t.Fatalf("expected %d, got %d", expect, p.ID)
			}
			expect++
		}
	}
	if f.bytes != units.ByteSize(f.count)*1500 {
		t.Errorf("byte accounting drifted: %d bytes for %d packets", f.bytes, f.count)
	}
}

func TestFIFOSnapshot(t *testing.T) {
	f := newFIFO(2)
	for i := 0; i < 5; i++ {
		f.push(mkData(uint64(i)))
	}
	f.pop()
	snap := f.snapshot(nil)
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, p := range snap {
		if p.ID != uint64(i+1) {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, p.ID, i+1)
		}
	}
}

func TestVerdictPredicates(t *testing.T) {
	if Enqueued.Dropped() || EnqueuedMarked.Dropped() {
		t.Error("accept verdicts report Dropped")
	}
	if !DroppedEarly.Dropped() || !DroppedOverflow.Dropped() {
		t.Error("drop verdicts do not report Dropped")
	}
	names := map[Verdict]string{
		Enqueued: "enqueued", EnqueuedMarked: "enqueued+marked",
		DroppedEarly: "dropped-early", DroppedOverflow: "dropped-overflow",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

// Conservation property: every packet offered to a queue is either dropped
// at enqueue or eventually dequeued, exactly once.
func TestConservationProperty(t *testing.T) {
	disciplines := map[string]func() Qdisc{
		"droptail": func() Qdisc { return NewDropTail(16) },
		"red": func() Qdisc {
			cfg := DefaultREDConfig(16, 10*units.Gbps)
			cfg.Seed = 42
			return NewRED(cfg)
		},
		"simplemark": func() Qdisc { return NewSimpleMark(16, 4) },
	}
	for name, mk := range disciplines {
		t.Run(name, func(t *testing.T) {
			f := func(ops []bool, seed uint64) bool {
				q := mk()
				var id, enq, drop, deq uint64
				now := units.Time(0)
				for _, isEnq := range ops {
					now = now.Add(100 * units.Nanosecond)
					if isEnq {
						id++
						v := q.Enqueue(now, mkData(id))
						if v.Dropped() {
							drop++
						} else {
							enq++
						}
					} else if q.Dequeue(now) != nil {
						deq++
					}
				}
				for q.Dequeue(now) != nil {
					deq++
				}
				return enq == deq && q.Len() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQueueByteAccounting(t *testing.T) {
	for _, q := range []Qdisc{
		NewDropTail(100),
		NewRED(func() REDConfig { c := DefaultREDConfig(100, 10*units.Gbps); return c }()),
		NewSimpleMark(100, 50),
	} {
		t.Run(q.Name(), func(t *testing.T) {
			now := units.Time(1000)
			q.Enqueue(now, mkData(1))
			q.Enqueue(now, mkAck(2))
			wantBytes := units.ByteSize(1500 + 40)
			if q.BytesQueued() != wantBytes {
				t.Errorf("BytesQueued = %d, want %d", q.BytesQueued(), wantBytes)
			}
			if q.Len() != 2 {
				t.Errorf("Len = %d, want 2", q.Len())
			}
			q.Dequeue(now)
			if q.BytesQueued() != 40 {
				t.Errorf("BytesQueued after dequeue = %d, want 40", q.BytesQueued())
			}
		})
	}
}

// TestConservationWithHeadDrops extends the conservation property to
// disciplines that drop at dequeue time (CoDel): enqueued = dequeued +
// head-dropped.
func TestConservationWithHeadDrops(t *testing.T) {
	mk := func() (Qdisc, *int) {
		cfg := DefaultCoDelConfig(64, 50*units.Microsecond)
		q := NewCoDel(cfg)
		headDrops := 0
		q.SetHeadDropCallback(func(p *packet.Packet) { headDrops++ })
		return q, &headDrops
	}
	f := func(ops []bool) bool {
		q, headDrops := mk()
		var enq, tail, deq int
		now := units.Time(0)
		id := uint64(0)
		for _, isEnq := range ops {
			now = now.Add(200 * units.Microsecond)
			if isEnq {
				id++
				// Alternate ECT data and ACKs so head drops can happen.
				var p *packet.Packet
				if id%2 == 0 {
					p = mkData(id)
				} else {
					p = mkAck(id)
				}
				if q.Enqueue(now, p).Dropped() {
					tail++
				} else {
					enq++
				}
			} else if q.Dequeue(now) != nil {
				deq++
			}
		}
		for q.Dequeue(now) != nil {
			deq++
		}
		return enq == deq+*headDrops && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPIEConservationProperty is the same property for PIE (enqueue drops
// only).
func TestPIEConservationProperty(t *testing.T) {
	f := func(ops []bool, seed uint64) bool {
		cfg := DefaultPIEConfig(64, 10*units.Gbps, 50*units.Microsecond)
		cfg.Seed = seed
		q := NewPIE(cfg)
		var enq, deq int
		now := units.Time(0)
		id := uint64(0)
		for _, isEnq := range ops {
			now = now.Add(100 * units.Microsecond)
			if isEnq {
				id++
				if !q.Enqueue(now, mkData(id)).Dropped() {
					enq++
				}
			} else if q.Dequeue(now) != nil {
				deq++
			}
		}
		for q.Dequeue(now) != nil {
			deq++
		}
		return enq == deq && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// everyKind builds queues of each discipline with a 16-packet buffer.
var everyKind = map[string]func() Qdisc{
	"droptail":   func() Qdisc { return NewDropTail(16) },
	"red":        func() Qdisc { return NewRED(REDForTargetDelay(16, units.Gbps, 100*units.Microsecond)) },
	"simplemark": func() Qdisc { return NewSimpleMark(16, 4) },
	"codel":      func() Qdisc { return NewCoDel(DefaultCoDelConfig(16, 500*units.Microsecond)) },
	"pie":        func() Qdisc { return NewPIE(DefaultPIEConfig(16, units.Gbps, 500*units.Microsecond)) },
}

// ringOf exposes a discipline's packet buffer.
func ringOf(q Qdisc) *fifo {
	switch q := q.(type) {
	case *DropTail:
		return &q.q
	case *RED:
		return &q.q
	case *SimpleMark:
		return &q.q
	case *CoDel:
		return &q.q
	case *PIE:
		return &q.q
	}
	panic("ringOf: unknown discipline")
}

func TestUnusedQueueHoldsNoRing(t *testing.T) {
	for name, mk := range everyKind {
		q := mk()
		if ringOf(q).buf != nil {
			t.Errorf("%s: ring allocated before the first enqueue", name)
		}
		if q.Peek() != nil || q.Dequeue(0) != nil || q.Len() != 0 || q.BytesQueued() != 0 {
			t.Errorf("%s: never-used queue is not empty", name)
		}
		if s, ok := q.(Snapshotter); ok && len(s.Snapshot()) != 0 {
			t.Errorf("%s: never-used queue has a non-empty snapshot", name)
		}
		if ringOf(q).buf != nil {
			t.Errorf("%s: reading an empty queue allocated its ring", name)
		}
		q.Enqueue(0, mkData(1))
		if got := len(ringOf(q).buf); got != 16 {
			t.Errorf("%s: first enqueue allocated a %d-slot ring, want the 16-packet buffer", name, got)
		}
	}
}

func TestFirstEnqueueIsTheOnlyAllocation(t *testing.T) {
	const runs = 50
	for name, mk := range everyKind {
		fresh := make([]Qdisc, runs+1) // AllocsPerRun adds one warm-up call
		for i := range fresh {
			fresh[i] = mk()
		}
		pkts := make([]*packet.Packet, 2*(runs+1))
		for i := range pkts {
			pkts[i] = mkData(uint64(i))
		}
		i := 0
		first := testing.AllocsPerRun(runs, func() {
			fresh[i].Enqueue(0, pkts[i])
			i++
		})
		if first != 1 {
			t.Errorf("%s: first enqueue made %v allocations, want 1", name, first)
		}
		q := fresh[0]
		now := units.Time(0)
		steady := testing.AllocsPerRun(runs, func() {
			now += units.Time(units.Microsecond)
			q.Enqueue(now, pkts[runs+1])
			q.Dequeue(now)
		})
		if steady != 0 {
			t.Errorf("%s: enqueue+dequeue on a used queue made %v allocations, want 0", name, steady)
		}
	}
}

func TestFIFOWrapsAndGrowsPastHint(t *testing.T) {
	f := newFIFO(8)
	next, expect := uint64(0), uint64(0)
	push := func(n int) {
		for ; n > 0; n-- {
			f.push(mkData(next))
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			p := f.pop()
			if p == nil || p.ID != expect {
				t.Fatalf("pop: got %v, want packet %d", p, expect)
			}
			expect++
		}
	}
	push(6)
	pop(4)
	push(6) // the tail wraps past the end of the 8-slot ring
	if len(f.buf) != 8 || f.head == 0 {
		t.Fatalf("ring len %d head %d, want a wrapped 8-slot ring", len(f.buf), f.head)
	}
	push(20) // grows past the hint while wrapped
	if len(f.buf) < 28 {
		t.Fatalf("ring len %d holds %d packets", len(f.buf), f.count)
	}
	pop(28)
	if f.pop() != nil || f.count != 0 || f.bytes != 0 {
		t.Errorf("drained ring: count %d bytes %d", f.count, f.bytes)
	}
}
