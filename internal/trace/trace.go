// Package trace records packet-level fabric events — enqueue verdicts,
// marks, drops, deliveries — into a bounded ring buffer and renders them as
// a text trace, in the spirit of NS-2's trace files. A Tracer implements
// netsim.Observer and subscribes to a shard beside the run's other
// observers (the metrics view, the fluid controller, the notifier), so
// tracing leaves the run it watches unchanged.
package trace

import (
	"fmt"
	"io"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/units"
)

// Op classifies a trace event.
type Op uint8

// Trace operations.
const (
	OpEnqueue Op = iota
	OpMark
	OpDropEarly
	OpDropOverflow
	OpDeliver
)

// String returns NS-2-flavoured single-character codes with a legend-friendly
// long form.
func (o Op) String() string {
	switch o {
	case OpEnqueue:
		return "+" // enqueued
	case OpMark:
		return "m" // CE-marked
	case OpDropEarly:
		return "d" // AQM drop
	case OpDropOverflow:
		return "D" // tail drop
	case OpDeliver:
		return "r" // received at destination
	}
	return "?"
}

// Event is one recorded fabric event.
type Event struct {
	At    units.Time
	Op    Op
	Port  string // empty for deliveries
	ID    uint64
	Kind  packet.Kind
	Src   packet.Addr
	Dst   packet.Addr
	Seq   uint64
	Ack   uint64
	Size  units.ByteSize
	ECN   packet.ECN
	Flags packet.TCPFlags
}

// Format renders the event as one trace line.
func (e Event) Format() string {
	port := e.Port
	if port == "" {
		port = "-"
	}
	return fmt.Sprintf("%-14s %s %-16s #%-7d %-7s %v->%v seq=%d ack=%d len=%d ecn=%v flags=%v",
		e.At, e.Op, port, e.ID, e.Kind, e.Src, e.Dst, e.Seq, e.Ack, e.Size, e.ECN, e.Flags)
}

// Tracer is a bounded-ring netsim.Observer.
type Tracer struct {
	ring  []Event
	head  int
	count int
	total uint64

	// Filter, if non-nil, keeps only events it returns true for.
	Filter func(*Event) bool
}

// New builds a tracer keeping the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// record inserts an event into the ring.
func (t *Tracer) record(e Event) {
	if t.Filter != nil && !t.Filter(&e) {
		return
	}
	t.total++
	t.ring[(t.head+t.count)%len(t.ring)] = e
	if t.count < len(t.ring) {
		t.count++
	} else {
		t.head = (t.head + 1) % len(t.ring)
	}
}

func eventOf(now units.Time, p *packet.Packet) Event {
	return Event{
		At:    now,
		ID:    p.ID,
		Kind:  p.Kind(),
		Src:   p.Src,
		Dst:   p.Dst,
		Seq:   p.Seq,
		Ack:   p.Ack,
		Size:  p.Size(),
		ECN:   p.ECN,
		Flags: p.Flags,
	}
}

// PacketEnqueued implements netsim.Observer.
func (t *Tracer) PacketEnqueued(now units.Time, port *netsim.Port, p *packet.Packet, v qdisc.Verdict) {
	e := eventOf(now, p)
	e.Port = port.Label
	switch v {
	case qdisc.Enqueued:
		e.Op = OpEnqueue
	case qdisc.EnqueuedMarked:
		e.Op = OpMark
	case qdisc.DroppedEarly:
		e.Op = OpDropEarly
	case qdisc.DroppedOverflow:
		e.Op = OpDropOverflow
	}
	t.record(e)
}

// PacketDelivered implements netsim.Observer.
func (t *Tracer) PacketDelivered(now units.Time, p *packet.Packet) {
	e := eventOf(now, p)
	e.Op = OpDeliver
	t.record(e)
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return t.count }

// Total returns the number of events ever recorded (pre-eviction).
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// Dump writes the retained events to w, one line each.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.Format()); err != nil {
			return err
		}
	}
	return nil
}

// DropsOnly returns a filter keeping only drop events — the usual question
// when debugging the paper's scenarios is "who died, and where".
func DropsOnly() func(*Event) bool {
	return func(e *Event) bool { return e.Op == OpDropEarly || e.Op == OpDropOverflow }
}

// KindOnly returns a filter keeping one packet kind.
func KindOnly(k packet.Kind) func(*Event) bool {
	return func(e *Event) bool { return e.Kind == k }
}
