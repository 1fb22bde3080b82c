// Package qdisc implements the switch egress queue disciplines studied in
// the paper:
//
//   - DropTail: the baseline all results are normalized against.
//   - RED: Random Early Detection with ECN support, per-packet or per-byte
//     thresholds, EWMA-averaged or instantaneous queue length, and the two
//     protection modes the paper proposes (protect ECE-bit packets; protect
//     all pure ACKs and SYN/SYN-ACKs).
//   - SimpleMark: the "true simple marking scheme" of the DCTCP paper — a
//     single instantaneous threshold at which ECT packets are marked, with
//     no early drops at all; the only losses are physical tail drops.
//
// All disciplines implement the Qdisc interface consumed by internal/netsim.
package qdisc

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/units"
)

// errCapacity and errParam build consistent construction errors.
func errCapacity(kind string, got int) error {
	return fmt.Errorf("qdisc: %s capacity %d must be positive", kind, got)
}

func errParam(kind, msg string) error {
	return fmt.Errorf("qdisc: %s %s", kind, msg)
}

// Verdict is the outcome of an Enqueue call.
type Verdict uint8

// Enqueue outcomes.
const (
	Enqueued        Verdict = iota // accepted unchanged
	EnqueuedMarked                 // accepted and CE-marked (ECN)
	DroppedEarly                   // AQM early drop (RED)
	DroppedOverflow                // physical buffer overflow (tail drop)
)

// Dropped reports whether the verdict lost the packet.
func (v Verdict) Dropped() bool { return v == DroppedEarly || v == DroppedOverflow }

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Enqueued:
		return "enqueued"
	case EnqueuedMarked:
		return "enqueued+marked"
	case DroppedEarly:
		return "dropped-early"
	case DroppedOverflow:
		return "dropped-overflow"
	}
	return "verdict(?)"
}

// Qdisc is an egress queue discipline. Implementations are not safe for
// concurrent use; the single-threaded engine never requires it.
type Qdisc interface {
	// Enqueue offers a packet at simulated time now. On a Dropped verdict
	// the packet is not retained.
	Enqueue(now units.Time, p *packet.Packet) Verdict
	// Dequeue removes and returns the head packet, or nil if empty.
	Dequeue(now units.Time) *packet.Packet
	// Peek returns the head packet without removing it, or nil.
	Peek() *packet.Packet
	// Len returns the instantaneous queue length in packets.
	Len() int
	// BytesQueued returns the instantaneous queue length in bytes.
	BytesQueued() units.ByteSize
	// CapacityPackets returns the physical buffer size in packets.
	CapacityPackets() int
	// Name returns a short identifier for reports ("droptail", "red", ...).
	Name() string
}

// fifo is the packet buffer shared by all disciplines: a growable ring.
// The ring is allocated at the capacity hint on the first push, so a port
// that never queues a packet — most ports of a large fabric whose bytes
// move as fluid — never holds one.
type fifo struct {
	buf   []*packet.Packet
	hint  int
	head  int
	count int
	bytes units.ByteSize
}

func newFIFO(capacityHint int) fifo {
	return fifo{hint: max(capacityHint, 8)}
}

func (f *fifo) push(p *packet.Packet) {
	if f.count == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.count)%len(f.buf)] = p
	f.count++
	f.bytes += p.Size()
}

func (f *fifo) pop() *packet.Packet {
	if f.count == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.count--
	f.bytes -= p.Size()
	return p
}

func (f *fifo) peek() *packet.Packet {
	if f.count == 0 {
		return nil
	}
	return f.buf[f.head]
}

func (f *fifo) grow() {
	nb := make([]*packet.Packet, max(2*len(f.buf), f.hint))
	for i := 0; i < f.count; i++ {
		nb[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = nb
	f.head = 0
}

// snapshot appends the queued packets head-first to dst and returns it.
func (f *fifo) snapshot(dst []*packet.Packet) []*packet.Packet {
	for i := 0; i < f.count; i++ {
		dst = append(dst, f.buf[(f.head+i)%len(f.buf)])
	}
	return dst
}

// Snapshotter is implemented by disciplines that can expose their queued
// packets for inspection (used by the Figure 1 queue-composition tool).
type Snapshotter interface {
	Snapshot() []*packet.Packet
}

// HeadDropper is implemented by disciplines that can drop packets at
// dequeue time (CoDel's sojourn-based drops). The fabric registers a
// callback so such drops reach the shard's observers, which otherwise only
// see enqueue verdicts.
type HeadDropper interface {
	SetHeadDropCallback(func(p *packet.Packet))
}
