package qdisc

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/units"
)

// SimpleMark is the "true simple marking scheme" the paper proposes as its
// second solution (and the scheme the original DCTCP paper assumed): a
// single threshold K on the *instantaneous* queue length. An arriving
// ECT-capable packet is CE-marked if the queue holds at least K packets.
// Nothing is ever dropped early — drops happen only when the physical buffer
// overflows, exactly as in DropTail.
type SimpleMark struct {
	q              fifo
	capacity       int
	threshold      int // K, in packets
	byteMode       bool
	thresholdBytes units.ByteSize

	marks, overflowDrops uint64
}

// NewSimpleMark builds a marking queue with physical capacity packets and
// marking threshold k packets.
func NewSimpleMark(capacity, k int) *SimpleMark {
	if capacity <= 0 {
		panic("qdisc: SimpleMark capacity must be positive")
	}
	if k <= 0 || k > capacity {
		panic(fmt.Sprintf("qdisc: SimpleMark threshold %d out of (0,%d]", k, capacity))
	}
	return &SimpleMark{q: newFIFO(capacity), capacity: capacity, threshold: k}
}

// NewSimpleMarkBytes builds a marking queue whose threshold is expressed in
// bytes (per-byte accounting ablation).
func NewSimpleMarkBytes(capacity int, k units.ByteSize) *SimpleMark {
	if capacity <= 0 {
		panic("qdisc: SimpleMark capacity must be positive")
	}
	if k <= 0 {
		panic("qdisc: SimpleMark byte threshold must be positive")
	}
	return &SimpleMark{q: newFIFO(capacity), capacity: capacity, byteMode: true, thresholdBytes: k, threshold: 1}
}

// SimpleMarkForTargetDelay derives the threshold K from a target queueing
// delay at the given drain rate: K = packets drained in target time.
func SimpleMarkForTargetDelay(capacity int, rate units.Bandwidth, target units.Duration) *SimpleMark {
	pktTime := rate.TransmitTime(packet.HeaderSize + packet.DefaultMSS)
	k := int(float64(target) / float64(pktTime))
	if k < 1 {
		k = 1
	}
	if k > capacity {
		k = capacity
	}
	return NewSimpleMark(capacity, k)
}

// Threshold returns K in packets (0 if byte mode).
func (s *SimpleMark) Threshold() int {
	if s.byteMode {
		return 0
	}
	return s.threshold
}

// Enqueue implements Qdisc.
func (s *SimpleMark) Enqueue(now units.Time, p *packet.Packet) Verdict {
	if s.q.count >= s.capacity {
		s.overflowDrops++
		return DroppedOverflow
	}
	over := false
	if s.byteMode {
		over = s.q.bytes >= s.thresholdBytes
	} else {
		over = s.q.count >= s.threshold
	}
	verdict := Enqueued
	if over && p.ECN.ECTCapable() {
		p.Mark()
		s.marks++
		verdict = EnqueuedMarked
	}
	p.EnqueuedAt = now
	s.q.push(p)
	return verdict
}

// Dequeue implements Qdisc.
func (s *SimpleMark) Dequeue(now units.Time) *packet.Packet { return s.q.pop() }

// Peek implements Qdisc.
func (s *SimpleMark) Peek() *packet.Packet { return s.q.peek() }

// Len implements Qdisc.
func (s *SimpleMark) Len() int { return s.q.count }

// BytesQueued implements Qdisc.
func (s *SimpleMark) BytesQueued() units.ByteSize { return s.q.bytes }

// CapacityPackets implements Qdisc.
func (s *SimpleMark) CapacityPackets() int { return s.capacity }

// Name implements Qdisc.
func (s *SimpleMark) Name() string { return "simplemark" }

// Counters returns (marks, overflowDrops).
func (s *SimpleMark) Counters() (marks, overflow uint64) { return s.marks, s.overflowDrops }

// Snapshot implements Snapshotter.
func (s *SimpleMark) Snapshot() []*packet.Packet { return s.q.snapshot(nil) }
