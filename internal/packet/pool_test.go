package packet

import (
	"testing"

	"repro/internal/units"
)

func TestPoolReusesReleasedPackets(t *testing.T) {
	var pl Pool
	p1 := pl.Get()
	p1.Payload = 1460
	p1.Flags = FlagACK
	p1.ECN = CE
	p1.Hops = 3
	p1.SentAt = units.Time(42)
	p1.SACK = append(p1.SACK, SACKBlock{Start: 1, End: 2})
	pl.Put(p1)

	p2 := pl.Get()
	if p2 != p1 {
		t.Fatal("pool did not reuse the released packet")
	}
	if p2.Payload != 0 || p2.Flags != 0 || p2.ECN != NotECT || p2.Hops != 0 || p2.SentAt != 0 {
		t.Errorf("reused packet not zeroed: %+v", p2)
	}
	if len(p2.SACK) != 0 {
		t.Errorf("reused packet has %d stale SACK blocks", len(p2.SACK))
	}
	if cap(p2.SACK) == 0 {
		t.Error("reused packet lost its SACK capacity")
	}
	if news, reuses := pl.Stats(); news != 1 || reuses != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", news, reuses)
	}
}

func TestPoolIgnoresForeignPackets(t *testing.T) {
	var pl Pool
	manual := &Packet{Payload: 99}
	pl.Put(manual)
	pl.Put(nil)
	if pl.Len() != 0 {
		t.Fatalf("free list holds %d packets after foreign/nil Put", pl.Len())
	}
	if manual.Payload != 99 {
		t.Error("foreign packet was mutated by Put")
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	pl.Put(p)
}

func TestPoolDistinctPacketsWhileLive(t *testing.T) {
	var pl Pool
	seen := map[*Packet]bool{}
	var live []*Packet
	for i := 0; i < 100; i++ {
		p := pl.Get()
		if seen[p] {
			t.Fatal("pool handed out a packet that is still live")
		}
		seen[p] = true
		live = append(live, p)
	}
	for _, p := range live {
		pl.Put(p)
	}
	if pl.Len() != 100 {
		t.Errorf("free list = %d, want 100", pl.Len())
	}
}

func TestPoolMoveTo(t *testing.T) {
	var src, dst Pool
	var live []*Packet
	for i := 0; i < 5; i++ {
		live = append(live, src.Get())
	}
	for _, p := range live {
		src.Put(p)
	}
	if got := src.MoveTo(&dst, 3); got != 3 || src.Len() != 2 || dst.Len() != 3 {
		t.Fatalf("MoveTo(3) moved %d, left (%d, %d), want 3 and (2, 3)", got, src.Len(), dst.Len())
	}
	if got := src.MoveTo(&dst, 10); got != 2 || src.Len() != 0 || dst.Len() != 5 {
		t.Fatalf("MoveTo(10) moved %d, left (%d, %d), want 2 and (0, 5)", got, src.Len(), dst.Len())
	}
	seen := map[*Packet]bool{}
	for i := 0; i < 5; i++ {
		seen[dst.Get()] = true
	}
	for _, p := range live {
		if !seen[p] {
			t.Fatal("a moved packet was lost")
		}
	}
	if news, _ := dst.Stats(); news != 0 {
		t.Errorf("destination minted %d packets while holding moved ones", news)
	}
}
