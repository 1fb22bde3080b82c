package qdisc

import (
	"math"

	"repro/internal/packet"
	"repro/internal/units"
)

// CoDelConfig parameterizes a CoDel queue (Nichols & Jacobson, CACM 2012).
// CoDel watches the *sojourn time* of dequeued packets: once every packet
// has spent more than Target in the queue for an Interval, it enters a
// dropping state whose drop rate increases with the square root of the drop
// count. With ECN enabled, ECT packets are marked instead of dropped —
// leaving non-ECT packets (ACKs, SYNs) exposed to the same bias the paper
// identifies in RED, which is why the protection modes apply here too.
type CoDelConfig struct {
	// CapacityPackets is the physical buffer.
	CapacityPackets int
	// Target is the acceptable standing queue delay (classic 5 ms;
	// datacenter deployments use far less).
	Target units.Duration
	// Interval is the sliding window in which the standing delay must be
	// observed (classic 100 ms).
	Interval units.Duration
	// ECN marks ECT packets instead of dropping them.
	ECN bool
	// Protect shields the paper's packet classes from CoDel's drops.
	Protect ProtectMode
}

// DefaultCoDelConfig returns datacenter-flavoured parameters for the given
// buffer size and target delay.
func DefaultCoDelConfig(capacity int, target units.Duration) CoDelConfig {
	return CoDelConfig{
		CapacityPackets: capacity,
		Target:          target,
		Interval:        16 * target, // keep the classic 5ms:100ms ratio
		ECN:             true,
	}
}

// Validate reports a configuration error, or nil.
func (c *CoDelConfig) Validate() error {
	switch {
	case c.CapacityPackets <= 0:
		return errCapacity("CoDel", c.CapacityPackets)
	case c.Target <= 0 || c.Interval <= 0:
		return errParam("CoDel", "target/interval must be positive")
	}
	return nil
}

// CoDel is the Controlled Delay AQM with ECN support and the paper's
// protection modes. Marking/dropping happens at dequeue time (sojourn
// based), per the reference algorithm.
type CoDel struct {
	cfg CoDelConfig
	q   fifo

	dropping       bool
	dropNext       units.Time
	dropCount      int
	lastCount      int
	firstAboveTime units.Time

	onHeadDrop func(p *packet.Packet)

	marks, earlyDrops, overflowDrops uint64
}

// SetHeadDropCallback implements HeadDropper.
func (c *CoDel) SetHeadDropCallback(fn func(p *packet.Packet)) { c.onHeadDrop = fn }

// NewCoDel builds a CoDel queue; it panics on invalid configuration.
func NewCoDel(cfg CoDelConfig) *CoDel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CoDel{cfg: cfg, q: newFIFO(cfg.CapacityPackets)}
}

// Config returns the configuration.
func (c *CoDel) Config() CoDelConfig { return c.cfg }

// Enqueue implements Qdisc: tail-drop only; CoDel acts at dequeue.
func (c *CoDel) Enqueue(now units.Time, p *packet.Packet) Verdict {
	if c.q.count >= c.cfg.CapacityPackets {
		c.overflowDrops++
		return DroppedOverflow
	}
	p.EnqueuedAt = now
	c.q.push(p)
	return Enqueued
}

// sojournOK reports whether p's sojourn time is below target, updating the
// first-above tracking.
func (c *CoDel) sojournOK(now units.Time, p *packet.Packet) bool {
	sojourn := now.Sub(p.EnqueuedAt)
	if sojourn < c.cfg.Target || c.q.bytes <= packet.HeaderSize+packet.DefaultMSS {
		c.firstAboveTime = 0
		return true
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now.Add(c.cfg.Interval)
		return true
	}
	return now < c.firstAboveTime
}

// controlLaw computes the next drop time.
func (c *CoDel) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(c.cfg.Interval) / math.Sqrt(float64(c.dropCount))))
}

// act applies CoDel's congestion action to a packet about to be dequeued:
// mark (ECT), protect, or drop. It reports whether the packet survived.
func (c *CoDel) act(p *packet.Packet) bool {
	switch {
	case c.cfg.ECN && p.ECN.ECTCapable():
		if p.ECN != packet.CE {
			p.Mark()
			c.marks++
		}
		return true
	case c.cfg.ECN && c.cfg.Protect.protects(p):
		return true
	default:
		c.earlyDrops++
		if c.onHeadDrop != nil {
			c.onHeadDrop(p)
		}
		return false
	}
}

// Dequeue implements Qdisc with the CoDel state machine.
func (c *CoDel) Dequeue(now units.Time) *packet.Packet {
	p := c.q.pop()
	if p == nil {
		c.dropping = false
		return nil
	}
	okToSend := c.sojournOK(now, p)
	if c.dropping {
		if okToSend {
			c.dropping = false
			return p
		}
		for !okToSend && c.dropping && now >= c.dropNext {
			if !c.act(p) {
				p = c.q.pop()
				if p == nil {
					c.dropping = false
					return nil
				}
				okToSend = c.sojournOK(now, p)
			} else {
				// Marked or protected: the action "took"; schedule the
				// next one and send this packet.
				c.dropCount++
				c.dropNext = c.controlLaw(c.dropNext)
				return p
			}
			c.dropCount++
			c.dropNext = c.controlLaw(c.dropNext)
		}
		return p
	}
	if !okToSend {
		// Enter dropping state.
		if !c.act(p) {
			p = c.q.pop()
		}
		c.dropping = true
		// Start from a count related to the last episode (reference
		// algorithm's hysteresis).
		if c.dropCount > 2 && c.dropCount-c.lastCount > 1 {
			c.dropCount = c.dropCount - c.lastCount
		} else {
			c.dropCount = 1
		}
		c.lastCount = c.dropCount
		c.dropNext = c.controlLaw(now)
	}
	return p
}

// Peek implements Qdisc.
func (c *CoDel) Peek() *packet.Packet { return c.q.peek() }

// Len implements Qdisc.
func (c *CoDel) Len() int { return c.q.count }

// BytesQueued implements Qdisc.
func (c *CoDel) BytesQueued() units.ByteSize { return c.q.bytes }

// CapacityPackets implements Qdisc.
func (c *CoDel) CapacityPackets() int { return c.cfg.CapacityPackets }

// Name implements Qdisc.
func (c *CoDel) Name() string {
	if c.cfg.Protect == ProtectNone {
		return "codel"
	}
	return "codel+" + c.cfg.Protect.String()
}

// Counters returns (marks, earlyDrops, overflowDrops).
func (c *CoDel) Counters() (marks, early, overflow uint64) {
	return c.marks, c.earlyDrops, c.overflowDrops
}

// Snapshot implements Snapshotter.
func (c *CoDel) Snapshot() []*packet.Packet { return c.q.snapshot(nil) }
