package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/units"
)

// runTraced runs a short congested transfer with a tracer subscribed after
// a metrics collector's view, returning the tracer and the collector.
func runTraced(t *testing.T, capacity int, filter func(*trace.Event) bool) (*trace.Tracer, *metrics.Collector) {
	t.Helper()
	eng := sim.New()
	cl := topo.Build(eng, topo.Config{
		Nodes:     3,
		LinkRate:  1 * units.Gbps,
		LinkDelay: 5 * units.Microsecond,
		SwitchQueue: func(label string, rate units.Bandwidth) qdisc.Qdisc {
			return qdisc.NewDropTail(32)
		},
	})
	col := metrics.New(0, 1)
	tr := trace.New(capacity)
	tr.Filter = filter
	cl.Net.Subscribe(col.View())
	cl.Net.Subscribe(tr)

	stats := &tcp.Stats{}
	var stacks []*tcp.Stack
	for _, h := range cl.Hosts {
		stacks = append(stacks, tcp.NewStack(h, tcp.DefaultConfig(tcp.Reno), stats))
	}
	stacks[2].Listen(80, func(c *tcp.Conn) {})
	for i := 0; i < 2; i++ {
		c := stacks[i].Dial(packet.Addr{Node: cl.Hosts[2].ID(), Port: 80})
		c.Send(1 << 20)
		c.Close()
	}
	eng.RunUntil(units.Time(30 * units.Second))
	return tr, col
}

// TestTracerRecordsAndChains: the tracer records the run while the
// collector subscribed beside it on the same shard still sees every event.
func TestTracerRecordsAndChains(t *testing.T) {
	tr, col := runTraced(t, 1<<16, nil)
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if col.DeliveredPackets == 0 {
		t.Fatal("the collector beside the tracer saw nothing")
	}
	// Deliveries recorded must match the collector's count when the ring
	// did not evict.
	deliver := 0
	for _, e := range tr.Events() {
		if e.Op == trace.OpDeliver {
			deliver++
		}
	}
	if uint64(tr.Len()) == tr.Total() && uint64(deliver) != col.DeliveredPackets {
		t.Errorf("tracer deliveries %d != collector %d", deliver, col.DeliveredPackets)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr, _ := runTraced(t, 64, nil)
	if tr.Len() != 64 {
		t.Errorf("ring kept %d, want 64", tr.Len())
	}
	if tr.Total() <= 64 {
		t.Errorf("total %d too small for a congested run", tr.Total())
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of time order after eviction")
		}
	}
}

func TestDropsOnlyFilter(t *testing.T) {
	tr, col := runTraced(t, 1<<16, trace.DropsOnly())
	_, ovf := col.Drops()
	if ovf == 0 {
		t.Skip("no drops this run; filter untestable")
	}
	if tr.Len() == 0 {
		t.Fatal("filter recorded nothing despite drops")
	}
	for _, e := range tr.Events() {
		if e.Op != trace.OpDropEarly && e.Op != trace.OpDropOverflow {
			t.Fatalf("non-drop event leaked through filter: %v", e.Op)
		}
	}
	if uint64(tr.Total()) != uint64(ovf) {
		t.Errorf("drop events %d != collector drops %d", tr.Total(), ovf)
	}
}

func TestKindOnlyFilter(t *testing.T) {
	tr, _ := runTraced(t, 1<<16, trace.KindOnly(packet.KindSYN))
	for _, e := range tr.Events() {
		if e.Kind != packet.KindSYN {
			t.Fatalf("kind filter leaked %v", e.Kind)
		}
	}
	if tr.Len() == 0 {
		t.Error("no SYNs traced; every run dials connections")
	}
}

func TestDumpFormat(t *testing.T) {
	tr, _ := runTraced(t, 256, nil)
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != tr.Len() {
		t.Errorf("dump lines %d != events %d", len(lines), tr.Len())
	}
	if !strings.Contains(out, "seq=") || !strings.Contains(out, "ecn=") {
		t.Error("dump missing expected fields")
	}
}

func TestOpCodes(t *testing.T) {
	codes := map[trace.Op]string{
		trace.OpEnqueue: "+", trace.OpMark: "m", trace.OpDropEarly: "d",
		trace.OpDropOverflow: "D", trace.OpDeliver: "r",
	}
	for op, want := range codes {
		if op.String() != want {
			t.Errorf("Op(%d) = %q, want %q", op, op.String(), want)
		}
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	trace.New(0)
}

var _ netsim.Observer = (*trace.Tracer)(nil)
