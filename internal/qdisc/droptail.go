package qdisc

import (
	"repro/internal/packet"
	"repro/internal/units"
)

// DropTail is the classic FIFO queue that accepts every packet until the
// physical buffer is full, then drops arrivals. It is the baseline every
// result in the paper is normalized against.
type DropTail struct {
	q        fifo
	capacity int // packets
}

// NewDropTail builds a DropTail queue holding at most capacity packets.
func NewDropTail(capacity int) *DropTail {
	if capacity <= 0 {
		panic("qdisc: DropTail capacity must be positive")
	}
	return &DropTail{q: newFIFO(capacity), capacity: capacity}
}

// Enqueue implements Qdisc.
func (d *DropTail) Enqueue(now units.Time, p *packet.Packet) Verdict {
	if d.q.count >= d.capacity {
		return DroppedOverflow
	}
	p.EnqueuedAt = now
	d.q.push(p)
	return Enqueued
}

// Dequeue implements Qdisc.
func (d *DropTail) Dequeue(now units.Time) *packet.Packet { return d.q.pop() }

// Peek implements Qdisc.
func (d *DropTail) Peek() *packet.Packet { return d.q.peek() }

// Len implements Qdisc.
func (d *DropTail) Len() int { return d.q.count }

// BytesQueued implements Qdisc.
func (d *DropTail) BytesQueued() units.ByteSize { return d.q.bytes }

// CapacityPackets implements Qdisc.
func (d *DropTail) CapacityPackets() int { return d.capacity }

// Name implements Qdisc.
func (d *DropTail) Name() string { return "droptail" }

// Snapshot implements Snapshotter.
func (d *DropTail) Snapshot() []*packet.Packet { return d.q.snapshot(nil) }
