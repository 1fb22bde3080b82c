package qdisc

import (
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/units"
)

// PIEConfig parameterizes a PIE queue (Proportional Integral controller
// Enhanced, RFC 8033). PIE estimates queueing delay from the queue length
// and drain rate and adjusts a drop probability with a PI controller so the
// delay converges to a target. With ECN, ECT packets under the probability
// are marked instead of dropped; non-ECT packets are dropped — the same
// asymmetry as RED, so the paper's protection modes apply.
type PIEConfig struct {
	// CapacityPackets is the physical buffer.
	CapacityPackets int
	// Target is the queueing-delay setpoint (RFC suggests 15 ms for the
	// internet; datacenters run far lower).
	Target units.Duration
	// TUpdate is the control-law update period (RFC: 15 ms).
	TUpdate units.Duration
	// Alpha and Beta are the PI gains in units of probability per second of
	// delay error (RFC 8033 section 4.2: 0.125 and 1.25).
	Alpha, Beta float64
	// DrainRate estimates the egress rate for the delay computation.
	DrainRate units.Bandwidth
	// ECN marks ECT packets instead of dropping them.
	ECN bool
	// Protect shields the paper's packet classes.
	Protect ProtectMode
	// Seed drives the probabilistic drop decisions.
	Seed uint64
}

// DefaultPIEConfig returns datacenter-flavoured parameters. The RFC's gains
// (0.125, 1.25) are calibrated for its 15 ms reference target; a controller
// chasing a microsecond-scale target sees delay errors three orders of
// magnitude smaller, so the gains scale up inversely with the target to keep
// the loop dynamics equivalent.
func DefaultPIEConfig(capacity int, rate units.Bandwidth, target units.Duration) PIEConfig {
	const refTarget = 15 * units.Millisecond
	scale := float64(refTarget) / float64(target)
	if scale < 1 {
		scale = 1
	}
	return PIEConfig{
		CapacityPackets: capacity,
		Target:          target,
		TUpdate:         4 * target,
		Alpha:           0.125 * scale,
		Beta:            1.25 * scale,
		DrainRate:       rate,
		ECN:             true,
	}
}

// Validate reports a configuration error, or nil.
func (c *PIEConfig) Validate() error {
	switch {
	case c.CapacityPackets <= 0:
		return errCapacity("PIE", c.CapacityPackets)
	case c.Target <= 0 || c.TUpdate <= 0:
		return errParam("PIE", "target/tupdate must be positive")
	case c.Alpha <= 0 || c.Beta <= 0:
		return errParam("PIE", "gains must be positive")
	case c.DrainRate <= 0:
		return errParam("PIE", "drain rate must be positive")
	}
	return nil
}

// PIE is the RFC 8033 AQM with ECN and protection modes. The controller
// updates lazily on enqueue when TUpdate has elapsed, which in a
// discrete-event simulation is equivalent to a timer at much lower cost.
type PIE struct {
	cfg  PIEConfig
	q    fifo
	rand *rng.Source

	prob       float64
	lastUpdate units.Time
	lastDelay  units.Duration

	marks, earlyDrops, overflowDrops uint64
}

// NewPIE builds a PIE queue; it panics on invalid configuration.
func NewPIE(cfg PIEConfig) *PIE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PIE{cfg: cfg, q: newFIFO(cfg.CapacityPackets), rand: rng.New(cfg.Seed ^ 0x50e1)}
}

// Config returns the configuration.
func (p *PIE) Config() PIEConfig { return p.cfg }

// queueDelay estimates current queueing delay from backlog and drain rate.
func (p *PIE) queueDelay() units.Duration {
	return p.cfg.DrainRate.TransmitTime(p.q.bytes)
}

// update advances the PI controller if a period elapsed.
func (p *PIE) update(now units.Time) {
	if p.lastUpdate != 0 && now.Sub(p.lastUpdate) < p.cfg.TUpdate {
		return
	}
	delay := p.queueDelay()
	dErr := (delay - p.cfg.Target).Seconds()
	dTrend := (delay - p.lastDelay).Seconds()
	// RFC 8033: scale gains down while the probability is small, so the
	// controller is gentle near zero.
	scale := 1.0
	switch {
	case p.prob < 0.000001:
		scale = 1.0 / 2048
	case p.prob < 0.00001:
		scale = 1.0 / 512
	case p.prob < 0.0001:
		scale = 1.0 / 128
	case p.prob < 0.001:
		scale = 1.0 / 32
	case p.prob < 0.01:
		scale = 1.0 / 8
	case p.prob < 0.1:
		scale = 1.0 / 2
	}
	p.prob += scale * (p.cfg.Alpha*dErr + p.cfg.Beta*dTrend)
	if p.prob < 0 {
		p.prob = 0
	}
	if p.prob > 1 {
		p.prob = 1
	}
	// Decay when idle.
	if delay == 0 && p.lastDelay == 0 {
		p.prob *= 0.98
	}
	p.lastDelay = delay
	p.lastUpdate = now
}

// Enqueue implements Qdisc.
func (p *PIE) Enqueue(now units.Time, pkt *packet.Packet) Verdict {
	if p.q.count >= p.cfg.CapacityPackets {
		p.overflowDrops++
		return DroppedOverflow
	}
	p.update(now)
	// Safeguards from the RFC: never act when the queue is nearly empty.
	act := p.prob > 0 && p.queueDelay() > p.cfg.Target/2 && p.q.count > 2
	if act && p.rand.Float64() < p.prob {
		switch {
		case p.cfg.ECN && pkt.ECN.ECTCapable() && p.prob < 0.1:
			// RFC 8033 section 5.1: mark ECT packets while the
			// probability is moderate; beyond 10% even ECT is dropped.
			pkt.Mark()
			p.marks++
			pkt.EnqueuedAt = now
			p.q.push(pkt)
			return EnqueuedMarked
		case p.cfg.ECN && p.cfg.Protect.protects(pkt):
			pkt.EnqueuedAt = now
			p.q.push(pkt)
			return Enqueued
		case p.cfg.ECN && pkt.ECN.ECTCapable():
			// High-probability regime: drop even ECT.
			p.earlyDrops++
			return DroppedEarly
		default:
			p.earlyDrops++
			return DroppedEarly
		}
	}
	pkt.EnqueuedAt = now
	p.q.push(pkt)
	return Enqueued
}

// Dequeue implements Qdisc.
func (p *PIE) Dequeue(now units.Time) *packet.Packet { return p.q.pop() }

// Peek implements Qdisc.
func (p *PIE) Peek() *packet.Packet { return p.q.peek() }

// Len implements Qdisc.
func (p *PIE) Len() int { return p.q.count }

// BytesQueued implements Qdisc.
func (p *PIE) BytesQueued() units.ByteSize { return p.q.bytes }

// CapacityPackets implements Qdisc.
func (p *PIE) CapacityPackets() int { return p.cfg.CapacityPackets }

// Name implements Qdisc.
func (p *PIE) Name() string {
	if p.cfg.Protect == ProtectNone {
		return "pie"
	}
	return "pie+" + p.cfg.Protect.String()
}

// Prob returns the current drop/mark probability (diagnostics).
func (p *PIE) Prob() float64 { return p.prob }

// Counters returns (marks, earlyDrops, overflowDrops).
func (p *PIE) Counters() (marks, early, overflow uint64) {
	return p.marks, p.earlyDrops, p.overflowDrops
}

// Snapshot implements Snapshotter.
func (p *PIE) Snapshot() []*packet.Packet { return p.q.snapshot(nil) }
