package qdisc

import (
	"fmt"
	"math"

	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/units"
)

// ProtectMode selects which non-ECT packets a RED/ECN queue shields from
// early drops. These are the operational modes proposed in Section II-B of
// the paper.
type ProtectMode uint8

// Protection modes.
const (
	// ProtectNone is the default behaviour of current AQM implementations:
	// only ECT-capable packets escape the early drop (by being CE-marked);
	// every non-ECT packet — including every pure ACK, SYN and SYN-ACK — is
	// subject to early dropping.
	ProtectNone ProtectMode = iota
	// ProtectECE additionally shields any packet whose TCP header carries
	// the ECE bit: congestion-echo ACKs, SYNs and SYN-ACKs (which carry ECE
	// during ECN negotiation).
	ProtectECE
	// ProtectACKSYN additionally shields every pure ACK and every SYN or
	// SYN-ACK, whether or not ECE is set.
	ProtectACKSYN
)

// String names the mode using the paper's labels.
func (m ProtectMode) String() string {
	switch m {
	case ProtectNone:
		return "default"
	case ProtectECE:
		return "ece-bit"
	case ProtectACKSYN:
		return "ack+syn"
	}
	return fmt.Sprintf("protect(%d)", uint8(m))
}

// protects reports whether mode m shields packet p from an early drop.
func (m ProtectMode) protects(p *packet.Packet) bool {
	switch m {
	case ProtectECE:
		return p.HasECE() || p.IsSYN()
	case ProtectACKSYN:
		return p.HasECE() || p.IsSYN() || p.IsPureACK()
	}
	return false
}

// REDConfig parameterizes a RED queue. The zero value is not valid; use
// DefaultREDConfig or derive one from a target delay via REDForTargetDelay.
type REDConfig struct {
	// CapacityPackets is the physical buffer in packets. Arrivals beyond it
	// are tail-dropped regardless of any other setting.
	CapacityPackets int
	// MinTh and MaxTh are the RED thresholds. Interpreted in packets unless
	// ByteMode is set, in which case they are in bytes.
	MinTh, MaxTh float64
	// MaxP is the marking/dropping probability at MaxTh (classic 0.1).
	MaxP float64
	// Wq is the EWMA weight for the average queue estimate (classic 0.002).
	// Ignored when Instantaneous is set.
	Wq float64
	// Instantaneous uses the current queue length instead of the EWMA
	// average, as recommended by Wu et al. for data centers.
	Instantaneous bool
	// Gentle enables gentle-RED: between MaxTh and 2*MaxTh the probability
	// ramps from MaxP to 1 instead of jumping to 1 at MaxTh.
	Gentle bool
	// ECN enables marking ECT packets instead of dropping them.
	ECN bool
	// Protect selects the paper's protection mode for non-ECT packets.
	Protect ProtectMode
	// ByteMode accounts the queue and thresholds in bytes rather than
	// packets. The paper observes switches implement per-packet thresholds,
	// which is what biases drops against small ACKs; ByteMode exists for the
	// ablation.
	ByteMode bool
	// MeanPacketSize is used in byte mode for the idle-decay estimate and to
	// scale the count-based probability correction. Defaults to a full-size
	// segment.
	MeanPacketSize units.ByteSize
	// DrainRate is the egress link rate; used to decay the average while the
	// queue is idle. Required (positive).
	DrainRate units.Bandwidth
	// Seed seeds the discipline's private random stream.
	Seed uint64
}

// DefaultREDConfig returns the classic configuration for the given buffer
// size and drain rate, with ECN enabled and no protection.
func DefaultREDConfig(capacity int, rate units.Bandwidth) REDConfig {
	return REDConfig{
		CapacityPackets: capacity,
		MinTh:           float64(capacity) / 12,
		MaxTh:           float64(capacity) / 4,
		MaxP:            0.1,
		Wq:              0.002,
		Gentle:          true,
		ECN:             true,
		DrainRate:       rate,
		MeanPacketSize:  packet.HeaderSize + packet.DefaultMSS,
	}
}

// REDForTargetDelay derives RED thresholds from a target queueing delay, the
// configuration knob the paper sweeps. The minimum threshold is set to the
// number of full-size packets the link drains in targetDelay/2 and the
// maximum to three times that, mirroring the methodology of the authors'
// earlier LCN 2016 study.
func REDForTargetDelay(capacity int, rate units.Bandwidth, target units.Duration) REDConfig {
	cfg := DefaultREDConfig(capacity, rate)
	pktTime := rate.TransmitTime(packet.HeaderSize + packet.DefaultMSS)
	minPkts := float64(target) / 2 / float64(pktTime)
	if minPkts < 1 {
		minPkts = 1
	}
	maxPkts := 3 * minPkts
	if maxPkts > float64(capacity) {
		maxPkts = float64(capacity)
	}
	if minPkts > maxPkts {
		minPkts = maxPkts
	}
	cfg.MinTh = minPkts
	cfg.MaxTh = maxPkts
	return cfg
}

// Validate reports a configuration error, or nil.
func (c *REDConfig) Validate() error {
	switch {
	case c.CapacityPackets <= 0:
		return fmt.Errorf("qdisc: RED capacity %d must be positive", c.CapacityPackets)
	case c.MinTh <= 0 || c.MaxTh < c.MinTh:
		return fmt.Errorf("qdisc: RED thresholds min=%g max=%g invalid", c.MinTh, c.MaxTh)
	case c.MaxP <= 0 || c.MaxP > 1:
		return fmt.Errorf("qdisc: RED maxP %g out of (0,1]", c.MaxP)
	case !c.Instantaneous && (c.Wq <= 0 || c.Wq > 1):
		return fmt.Errorf("qdisc: RED wq %g out of (0,1]", c.Wq)
	case c.DrainRate <= 0:
		return fmt.Errorf("qdisc: RED drain rate must be positive")
	}
	return nil
}

// RED is a Random Early Detection queue with ECN and the paper's protection
// modes. The implementation follows Floyd & Jacobson (1993) with the gentle
// extension, per-packet (or per-byte) accounting, and idle-time decay of the
// average.
type RED struct {
	cfg  REDConfig
	q    fifo
	rand *rng.Source

	avg       float64 // EWMA of queue length (packets or bytes per ByteMode)
	idleSince units.Time
	// pktTime is the drain time of one mean-size packet, the unit of the
	// idle decay. cfg never changes after NewRED, so it is computed once.
	pktTime units.Duration
	// count is the packets since the last mark or drop while in [min,max);
	// it resets whenever the average leaves that range. It is an int32, so
	// that it shares a word with idle and a RED stays in the 192-byte size
	// class (a fabric builds one per switch port, 10,240 in the 4096-node
	// cell); overflowing it takes 2^31 arrivals in a row with neither.
	count int32
	idle  bool

	// Diagnostics.
	marks, earlyDrops, overflowDrops uint64
}

// NewRED builds a RED queue. It panics on invalid configuration: queue
// construction happens at experiment setup where configuration errors are
// programming errors.
func NewRED(cfg REDConfig) *RED {
	if cfg.MeanPacketSize <= 0 {
		cfg.MeanPacketSize = packet.HeaderSize + packet.DefaultMSS
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &RED{
		cfg:     cfg,
		q:       newFIFO(cfg.CapacityPackets),
		rand:    rng.New(cfg.Seed ^ 0x9d5c_e5a1_b1e2_c3d4),
		idle:    true,
		pktTime: cfg.DrainRate.TransmitTime(cfg.MeanPacketSize),
	}
}

// Config returns the configuration the queue was built with.
func (r *RED) Config() REDConfig { return r.cfg }

// occupancy returns the instantaneous queue length in threshold units.
func (r *RED) occupancy() float64 {
	if r.cfg.ByteMode {
		return float64(r.q.bytes)
	}
	return float64(r.q.count)
}

// updateAvg refreshes the EWMA average at an arrival at time now.
func (r *RED) updateAvg(now units.Time) float64 {
	if r.cfg.Instantaneous {
		r.avg = r.occupancy()
		return r.avg
	}
	if r.idle {
		// Decay the average across the idle period: pretend m small packets
		// departed, m = idle_time / typical packet transmit time.
		if r.pktTime > 0 {
			m := float64(now.Sub(r.idleSince)) / float64(r.pktTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.cfg.Wq, m)
			}
		}
		r.idle = false
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*r.occupancy()
	return r.avg
}

// markProbability returns RED's marking probability at average queue avg.
// Returns (p, forced) where forced means the packet must be marked/dropped
// deterministically (avg beyond the hard region).
func (r *RED) markProbability(avg float64) (p float64, forced bool) {
	min, max := r.cfg.MinTh, r.cfg.MaxTh
	switch {
	case avg < min:
		return 0, false
	case avg < max:
		return r.cfg.MaxP * (avg - min) / (max - min), false
	case r.cfg.Gentle && avg < 2*max:
		return r.cfg.MaxP + (1-r.cfg.MaxP)*(avg-max)/max, false
	default:
		return 1, true
	}
}

// Enqueue implements Qdisc.
func (r *RED) Enqueue(now units.Time, p *packet.Packet) Verdict {
	if r.q.count >= r.cfg.CapacityPackets {
		r.overflowDrops++
		return DroppedOverflow
	}
	avg := r.updateAvg(now)
	prob, forced := r.markProbability(avg)

	hit := forced
	if !forced && prob > 0 {
		// Uniformized inter-mark spacing: p_a = p_b / (1 - count*p_b).
		pa := prob
		if denom := 1 - float64(r.count)*prob; denom > 0 {
			pa = prob / denom
		} else {
			pa = 1
		}
		if r.rand.Float64() < pa {
			hit = true
		} else {
			r.count++
		}
	}
	if prob == 0 {
		r.count = 0
	}

	if hit {
		r.count = 0
		switch {
		case r.cfg.ECN && p.ECN.ECTCapable():
			p.Mark()
			r.marks++
			p.EnqueuedAt = now
			r.q.push(p)
			return EnqueuedMarked
		case r.cfg.ECN && r.cfg.Protect.protects(p):
			// The paper's modification: the packet cannot carry a mark, but
			// it is too important to lose — keep it.
			p.EnqueuedAt = now
			r.q.push(p)
			return Enqueued
		default:
			r.earlyDrops++
			return DroppedEarly
		}
	}

	p.EnqueuedAt = now
	r.q.push(p)
	return Enqueued
}

// Dequeue implements Qdisc.
func (r *RED) Dequeue(now units.Time) *packet.Packet {
	p := r.q.pop()
	if p != nil && r.q.count == 0 {
		r.idle = true
		r.idleSince = now
	}
	return p
}

// Peek implements Qdisc.
func (r *RED) Peek() *packet.Packet { return r.q.peek() }

// Len implements Qdisc.
func (r *RED) Len() int { return r.q.count }

// BytesQueued implements Qdisc.
func (r *RED) BytesQueued() units.ByteSize { return r.q.bytes }

// CapacityPackets implements Qdisc.
func (r *RED) CapacityPackets() int { return r.cfg.CapacityPackets }

// Name implements Qdisc.
func (r *RED) Name() string {
	if r.cfg.Protect == ProtectNone {
		return "red"
	}
	return "red+" + r.cfg.Protect.String()
}

// AvgQueue returns the current average queue estimate (threshold units).
func (r *RED) AvgQueue() float64 { return r.avg }

// Counters returns (marks, earlyDrops, overflowDrops) for diagnostics.
func (r *RED) Counters() (marks, early, overflow uint64) {
	return r.marks, r.earlyDrops, r.overflowDrops
}

// Snapshot implements Snapshotter.
func (r *RED) Snapshot() []*packet.Packet { return r.q.snapshot(nil) }
