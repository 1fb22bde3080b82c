// Package tcp implements the simulated transport: TCP NewReno, classic
// TCP-ECN (RFC 3168) and DCTCP (RFC 8257), over the internal/netsim fabric.
// The implementation is packet-accurate where it matters to the paper:
// window-based ACK-clocked sending, slow start, congestion avoidance, fast
// retransmit/recovery, RTO with exponential backoff, delayed ACKs, ECN
// negotiation on SYN/SYN-ACK, ECE echo, CWR, and DCTCP's fractional window
// reduction driven by the marked-byte EWMA.
//
// Crucially — and this is the effect the paper studies — pure ACKs, SYNs and
// SYN-ACKs are sent as Non-ECT, exactly as real stacks send them, so an
// ECN-enabled AQM can only drop (never mark) them.
package tcp

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/units"
)

// Variant selects the congestion control behaviour of a connection.
type Variant uint8

// Supported variants.
const (
	// Reno is TCP NewReno without ECN.
	Reno Variant = iota
	// RenoECN is NewReno with classic RFC 3168 ECN: one multiplicative
	// decrease per RTT upon ECE.
	RenoECN
	// DCTCP is Data Center TCP: proportional decrease from the fraction of
	// CE-marked bytes.
	DCTCP
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Reno:
		return "tcp"
	case RenoECN:
		return "tcp-ecn"
	case DCTCP:
		return "dctcp"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// ECNEnabled reports whether the variant negotiates ECN.
func (v Variant) ECNEnabled() bool { return v == RenoECN || v == DCTCP }

// Config holds per-stack TCP parameters. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	Variant Variant

	// MSS is the maximum segment payload in bytes.
	MSS int
	// InitialCwnd is the initial congestion window in segments (RFC 6928
	// style; Linux default 10).
	InitialCwnd int
	// RcvWnd is the advertised receive window. Kept large by default so the
	// flows are congestion-window limited, as in the paper's experiments.
	RcvWnd units.ByteSize

	// MinRTO, MaxRTO and InitialRTO bound the retransmission timer. Linux's
	// effective minimum of 200 ms is the default; the RTO-on-ACK-loss
	// collapse the paper describes depends on it.
	MinRTO, MaxRTO, InitialRTO units.Duration
	// SynRTO is the initial SYN retransmission timeout (Linux: 1 s).
	SynRTO units.Duration
	// MaxSynRetries bounds connection attempts before failing.
	MaxSynRetries int

	// DelayedAck enables ACK-every-2nd-segment with a timeout.
	DelayedAck bool
	// DelAckTimeout flushes a pending delayed ACK.
	DelAckTimeout units.Duration
	// DelAckSegments is the segment count that forces an ACK (2).
	DelAckSegments int

	// DCTCPg is DCTCP's EWMA gain g (RFC 8257 recommends 1/16).
	DCTCPg float64

	// SACK enables selective acknowledgements with RFC 6675-style pipe
	// accounting during loss recovery, as every Linux stack of the paper's
	// era ships. Disable only for the non-SACK ablation.
	SACK bool
	// MaxSACKBlocks bounds blocks carried per ACK (3, as with timestamps).
	MaxSACKBlocks int

	// AckWireSize is the on-the-wire size of a pure ACK. 40 B by default;
	// the paper quotes ~150 B — configurable for the ablation. ACK size only
	// matters for byte-mode AQMs, which is the paper's point.
	AckWireSize units.ByteSize

	// TSQLimit holds back a host's senders while its egress queue is full,
	// after Linux's TCP Small Queues (tcp_limit_output_bytes), so that slow
	// start cannot flood the sender's own NIC. Unlike Linux's per-socket
	// limit, it is compared with the bytes queued on the host's whole
	// uplink, from every connection: before each segment of new data, FIN
	// or SACK-recovery retransmission, a connection that finds the queue at
	// or above the limit parks until the uplink drains it below. One
	// segment can take the queue past the limit; pure ACKs, handshake
	// segments and the non-SACK retransmissions are never held. Zero
	// disables.
	TSQLimit units.ByteSize
}

// DefaultConfig returns Linux-flavoured defaults for the given variant.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:        v,
		MSS:            packet.DefaultMSS,
		InitialCwnd:    10,
		RcvWnd:         64 * units.MiB,
		MinRTO:         200 * units.Millisecond,
		MaxRTO:         60 * units.Second,
		InitialRTO:     1 * units.Second,
		SynRTO:         1 * units.Second,
		MaxSynRetries:  6,
		DelayedAck:     true,
		DelAckTimeout:  500 * units.Microsecond,
		DelAckSegments: 2,
		DCTCPg:         1.0 / 16,
		SACK:           true,
		MaxSACKBlocks:  3,
		AckWireSize:    packet.DefaultAckSize,
		TSQLimit:       256 * units.KiB,
	}
}

// Validate reports a configuration error, or nil.
func (c *Config) Validate() error {
	switch {
	case c.MSS <= 0:
		return fmt.Errorf("tcp: MSS %d must be positive", c.MSS)
	case c.InitialCwnd <= 0:
		return fmt.Errorf("tcp: initial cwnd %d must be positive", c.InitialCwnd)
	case c.RcvWnd < units.ByteSize(c.MSS):
		return fmt.Errorf("tcp: receive window %v below one MSS", c.RcvWnd)
	case c.MinRTO <= 0 || c.MaxRTO < c.MinRTO:
		return fmt.Errorf("tcp: RTO bounds [%v,%v] invalid", c.MinRTO, c.MaxRTO)
	case c.InitialRTO <= 0 || c.SynRTO <= 0:
		return fmt.Errorf("tcp: initial RTOs must be positive")
	case c.MaxSynRetries < 0:
		return fmt.Errorf("tcp: MaxSynRetries must be non-negative")
	case c.DelayedAck && (c.DelAckTimeout <= 0 || c.DelAckSegments < 1):
		return fmt.Errorf("tcp: delayed-ACK parameters invalid")
	case c.Variant == DCTCP && (c.DCTCPg <= 0 || c.DCTCPg > 1):
		return fmt.Errorf("tcp: DCTCP g %g out of (0,1]", c.DCTCPg)
	case c.SACK && c.MaxSACKBlocks < 1:
		return fmt.Errorf("tcp: MaxSACKBlocks must be >=1 when SACK enabled")
	case c.AckWireSize < packet.HeaderSize:
		return fmt.Errorf("tcp: ACK wire size %v below header size", c.AckWireSize)
	}
	return nil
}

// Stats aggregates transport-level counters across all connections sharing
// it (typically one Stats per experiment run).
type Stats struct {
	SegmentsSent     uint64
	AcksSent         uint64
	BytesSent        units.ByteSize // payload bytes, including retransmits
	BytesDelivered   units.ByteSize // in-order payload delivered to apps
	FastRetransmits  uint64
	RTORetransmits   uint64
	RTOEvents        uint64
	SynRetries       uint64
	ConnsEstablished uint64
	ConnsFailed      uint64
	EceAcksSent      uint64 // pure ACKs carrying ECE
	CwndCuts         uint64 // multiplicative decreases from ECN signals
}

// Retransmits returns the total retransmitted segment count.
func (s *Stats) Retransmits() uint64 { return s.FastRetransmits + s.RTORetransmits }

// AddInto folds s into dst. Every field is additive, so sharded runs keep
// one Stats per shard (avoiding cross-shard write contention) and merge
// them after the run.
func (s *Stats) AddInto(dst *Stats) {
	dst.SegmentsSent += s.SegmentsSent
	dst.AcksSent += s.AcksSent
	dst.BytesSent += s.BytesSent
	dst.BytesDelivered += s.BytesDelivered
	dst.FastRetransmits += s.FastRetransmits
	dst.RTORetransmits += s.RTORetransmits
	dst.RTOEvents += s.RTOEvents
	dst.SynRetries += s.SynRetries
	dst.ConnsEstablished += s.ConnsEstablished
	dst.ConnsFailed += s.ConnsFailed
	dst.EceAcksSent += s.EceAcksSent
	dst.CwndCuts += s.CwndCuts
}
