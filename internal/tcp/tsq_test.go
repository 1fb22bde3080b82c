package tcp

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/units"
)

// accepted is one packet a host uplink took into its queue.
type accepted struct {
	at    units.Time
	port  uint16 // sender's local port
	seq   uint64
	flags packet.TCPFlags
}

// uplinkLog is a netsim.Observer that records every packet one port accepts.
type uplinkLog struct {
	port *netsim.Port
	got  []accepted
}

func (l *uplinkLog) PacketEnqueued(now units.Time, port *netsim.Port, p *packet.Packet, v qdisc.Verdict) {
	if port == l.port && !v.Dropped() {
		l.got = append(l.got, accepted{now, p.Src.Port, p.Seq, p.Flags})
	}
}

func (l *uplinkLog) PacketDelivered(units.Time, *packet.Packet) {}

// fullResume is the wake tsqWake must match: every parked connection is
// resumed in FIFO order, and each one that still finds the queue at the
// limit re-parks at the tail through tsqBlock. It counts the two situations
// that the production wake handles without calling anyone.
type fullResume struct {
	s     *Stack
	batch []*Conn

	// leftAtLimit counts connections that left the line while the uplink
	// was full: the production wake finds them only by the re-check.
	leftAtLimit int
	// stopsWithFollowers counts wakes in which a connection resumed under
	// the limit stopped at it, with parked connections behind it.
	stopsWithFollowers int
}

func (f *fullResume) wake() {
	s := f.s
	f.batch = append(f.batch[:0], s.tsqLine...)
	clear(s.tsqLine)
	s.tsqLine = s.tsqLine[:0]
	for _, c := range s.tsqChanged {
		c.tsqChanged = false
	}
	clear(s.tsqChanged)
	s.tsqChanged = s.tsqChanged[:0]
	q, limit := s.host.Uplink().Queue(), s.cfg.TSQLimit
	for i, c := range f.batch {
		full := q.BytesQueued() >= limit
		c.tsqWaiting = false
		c.trySend()
		switch {
		case full && !c.tsqWaiting:
			f.leftAtLimit++
		case !full && c.tsqWaiting && i < len(f.batch)-1:
			f.stopsWithFollowers++
		}
	}
}

// fanOut is one sender host with many bulk connections, on a star whose
// switch egress queues the caller picks.
type fanOut struct {
	eng    *sim.Engine
	cl     *topo.Cluster
	sender *Stack
	conns  []*Conn
	stats  *Stats
}

// newFanOut builds a star of hosts hosts with one stack each and dials
// senders connections from host 0 to hosts 1..receivers in turn.
func newFanOut(tb testing.TB, hosts, receivers, senders int, cfg Config, mkq topo.QdiscFactory) *fanOut {
	tb.Helper()
	eng := sim.New()
	cl := topo.Build(eng, topo.Config{
		Nodes:       hosts,
		LinkRate:    1 * units.Gbps,
		LinkDelay:   5 * units.Microsecond,
		SwitchQueue: mkq,
	})
	f := &fanOut{eng: eng, cl: cl, stats: &Stats{}}
	stacks := make([]*Stack, hosts)
	for i, h := range cl.Hosts {
		stacks[i] = NewStack(h, cfg, f.stats)
		stacks[i].Listen(80, func(*Conn) {})
	}
	f.sender = stacks[0]
	for i := 0; i < senders; i++ {
		dst := cl.Hosts[1+i%receivers].ID()
		f.conns = append(f.conns, f.sender.Dial(packet.Addr{Node: dst, Port: 80}))
	}
	return f
}

// TestTSQWakeMatchesFullResume runs one 16-connection fan-out twice, once
// with the production wake and once with fullResume installed on the
// sender's uplink, and requires the uplink to accept the same packets at
// the same times in the same order. After every production wake it also
// requires each connection left in the line to be one a full resume would
// have re-parked (canSend), which fails at once on a handler that does not
// list a parked connection, even where the order never shows it. The
// senders queue their bytes in four chunks, 2 ms apart, so Send and Close
// also run on parked connections. The receivers' switch ports are shallow
// marking queues (8 packets, marking from 4) that also carry a bulk flow
// from a host of their own, and the TSQ limit is a quarter of the default,
// so window cuts, drops, RTOs and completions happen while connections are
// parked, and parked connections often run out of window.
func TestTSQWakeMatchesFullResume(t *testing.T) {
	const senders, receivers = 16, 4
	stale := "" // the first connection a production wake left in line that cannot send
	run := func(reference bool) ([]accepted, *fullResume, Stats, int) {
		cfg := DefaultConfig(DCTCP)
		cfg.MinRTO = 1 * units.Millisecond // RTOs within the run
		cfg.TSQLimit = 64 * units.KiB
		f := newFanOut(t, 1+2*receivers, receivers, senders, cfg, func(string, units.Bandwidth) qdisc.Qdisc {
			return qdisc.NewSimpleMark(8, 4)
		})
		up := f.cl.Hosts[0].Uplink()
		ref := &fullResume{s: f.sender}
		f.sender.tsqHooked = true
		up.OnSent = func(*packet.Packet) {
			if reference {
				ref.wake()
				return
			}
			f.sender.tsqWake()
			for _, c := range f.sender.tsqLine {
				if !c.canSend() && stale == "" {
					stale = fmt.Sprintf("at %v port %d", f.eng.Now(), c.local.Port)
				}
			}
		}
		log := &uplinkLog{port: up}
		f.cl.Net.Subscribe(log)
		done, doneParked := 0, 0
		for i, c := range f.conns {
			c.OnClosed = func() {
				done++
				if len(f.sender.tsqLine) > 0 {
					doneParked++
				}
			}
			chunk := (1 + i%4) * 128 << 10
			for k := 0; k < 4; k++ {
				f.eng.Schedule(units.Time(k)*units.Time(2*units.Millisecond), func() {
					c.Send(chunk)
					if k == 3 {
						c.Close()
					}
				})
			}
		}
		// One competing bulk flow into each receiver, from its own host.
		for r := 1; r <= receivers; r++ {
			bg := NewStack(f.cl.Hosts[receivers+r], cfg, &Stats{})
			c := bg.Dial(packet.Addr{Node: f.cl.Hosts[r].ID(), Port: 80})
			c.Send(4 << 20)
			c.Close()
		}
		f.eng.RunUntil(units.Time(5 * units.Second))
		if done != senders {
			t.Fatalf("reference=%v: %d of %d senders finished", reference, done, senders)
		}
		return log.got, ref, *f.stats, doneParked
	}

	got, _, st, doneParked := run(false)
	if stale != "" {
		t.Errorf("a wake left a connection in line that could no longer send, %s", stale)
	}
	want, ref, _, _ := run(true)
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("uplink accepts diverge at #%d of %d: wake %+v, full resume %+v", i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("uplink accepted %d packets under the wake, %d under the full resume", len(got), len(want))
	}
	t.Logf("%d packets; full resume: %d left the line at the limit, %d stops with followers; RTOs %d, cwnd cuts %d, fast retransmits %d, %d completions while parked",
		len(want), ref.leftAtLimit, ref.stopsWithFollowers, st.RTOEvents, st.CwndCuts, st.FastRetransmits, doneParked)
	if ref.leftAtLimit == 0 {
		t.Error("no connection left the line while the uplink was full: the re-check went untested")
	}
	if ref.stopsWithFollowers == 0 {
		t.Error("no wake stopped with connections behind the stopped one: the stop rule went untested")
	}
	if st.RTOEvents == 0 || st.CwndCuts == 0 || st.FastRetransmits == 0 || doneParked == 0 {
		t.Errorf("RTOs %d, cwnd cuts %d, fast retransmits %d, completions while parked %d: want all four",
			st.RTOEvents, st.CwndCuts, st.FastRetransmits, doneParked)
	}
}

// TestTSQHandlersListParkedConnection pins the entry points tsqWake relies
// on: parking lists a connection for the next wake's re-check, and so does
// every handler that can change what canSend reads while it is parked.
func TestTSQHandlersListParkedConnection(t *testing.T) {
	for _, h := range []struct {
		name string
		run  func(c *Conn)
	}{
		{"Deliver", func(c *Conn) {
			c.stack.Deliver(&packet.Packet{Src: c.remote, Dst: c.local, Flags: packet.FlagACK, Ack: c.sndUna})
		}},
		{"RTO", (*Conn).onRTO},
		{"Send", func(c *Conn) { c.Send(1) }},
		{"Close", (*Conn).Close},
	} {
		f := newFanOut(t, 2, 1, 1, DefaultConfig(Reno), func(string, units.Bandwidth) qdisc.Qdisc {
			return qdisc.NewDropTail(64)
		})
		s, c := f.sender, f.conns[0]
		f.eng.RunUntil(units.Time(1 * units.Millisecond))
		if !c.Established() {
			t.Fatal("connection not established")
		}
		s.tsqBlock(c)
		if !c.tsqChanged || len(s.tsqChanged) != 1 {
			t.Fatal("parking did not list the connection")
		}
		c.tsqChanged = false // as a wake leaves it
		s.tsqChanged = s.tsqChanged[:0]
		h.run(c)
		if !c.tsqChanged || len(s.tsqChanged) != 1 || s.tsqChanged[0] != c {
			t.Errorf("%s did not list the parked connection", h.name)
		}
	}
}

// fanOutSteady is the steady state of 32 bulk senders on one host through
// deep switch queues: the uplink is the bottleneck, so nearly every sender
// is parked at any time and every packet the uplink sends runs a wake.
func fanOutSteady(tb testing.TB) *fanOut {
	f := newFanOut(tb, 33, 32, 32, DefaultConfig(Reno), func(string, units.Bandwidth) qdisc.Qdisc {
		return qdisc.NewDropTail(4096)
	})
	for _, c := range f.conns {
		c.Send(1 << 40)
	}
	f.eng.RunUntil(units.Time(50 * units.Millisecond))
	return f
}

// TestTSQWakeAllocatesNothing holds the park/wake cycle at zero allocations
// once the fan-out is in steady state.
func TestTSQWakeAllocatesNothing(t *testing.T) {
	f := fanOutSteady(t)
	parked := 0
	allocs := testing.AllocsPerRun(5, func() {
		f.eng.RunUntil(f.eng.Now().Add(1 * units.Millisecond))
		parked += len(f.sender.tsqLine)
	})
	if parked == 0 {
		t.Fatal("no sender was parked: the fan-out never reached the TSQ limit")
	}
	if allocs != 0 {
		t.Errorf("steady-state fan-out allocated %.1f times per simulated ms", allocs)
	}
}

// BenchmarkTSQFanOut times 10 simulated ms of the 32-sender fan-out in
// steady state.
func BenchmarkTSQFanOut(b *testing.B) {
	f := fanOutSteady(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.RunUntil(f.eng.Now().Add(10 * units.Millisecond))
	}
}
