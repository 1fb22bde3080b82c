package tcp

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// State is the connection state. The machine is a pragmatic subset of RFC
// 793: enough to study handshakes (SYN loss matters to the paper), steady
// bulk transfer and orderly FIN teardown.
type State uint8

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinSent // FIN transmitted, awaiting its ACK
	StateDone    // our FIN acked; conn kept for peer retransmits
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinSent:
		return "fin-sent"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// interval is a half-open received-but-out-of-order byte range.
type interval struct{ start, end uint64 }

// Conn is a TCP connection endpoint. It is created by Stack.Dial (active
// open) or by a Listener (passive open) and is driven entirely by simulated
// events.
type Conn struct {
	stack  *Stack
	cfg    Config
	local  packet.Addr
	remote packet.Addr
	active bool
	state  State

	ecnOn bool // ECN successfully negotiated

	// ---- Sender ----
	sndUna     uint64 // oldest unacknowledged sequence
	sndNxt     uint64 // next sequence to send
	appEnd     uint64 // one past the last byte the application queued
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recoverSeq uint64 // recovery ends when sndUna passes this

	// SACK machinery (RFC 2018/6675, simplified): the scoreboard holds
	// ranges the peer selectively acknowledged; retxMark holds ranges
	// retransmitted in the current recovery episode; rtoLoss marks the
	// post-timeout state in which every unsacked byte below sndNxt counts
	// as lost rather than in flight.
	scoreboard []interval
	retxMark   []interval
	rtoLoss    bool

	srtt, rttvar float64 // seconds; srtt==0 means no sample yet
	rto          units.Duration
	rtoBackoff   int
	rtxTimer     *sim.Timer

	// Classic-ECN / DCTCP sender state.
	cwrPending    bool
	ecnRecoverSeq uint64 // one reaction per window
	alpha         float64
	obsAcked      uint64
	obsMarked     uint64
	obsWindowEnd  uint64

	closeQueued bool
	finSeq      uint64 // sequence the FIN occupies, valid once queued
	finSent     bool
	tsqWaiting  bool // parked on the stack's TSQ line
	tsqChanged  bool // listed in the stack's tsqChanged

	// Handshake.
	synRetries int
	synTimer   *sim.Timer

	// ---- Receiver ----
	rcvNxt      uint64
	ooo         []interval // sorted, non-overlapping, above rcvNxt
	delackCount int
	delackTimer *sim.Timer
	lastTSVal   units.Time
	eceLatched  bool // classic ECN receiver
	ceState     bool // DCTCP receiver CE state machine
	finRcvdSeq  uint64
	finRcvd     bool
	eofSignaled bool
	delivered   units.ByteSize

	// ---- Application callbacks (all optional) ----
	OnConnected func()
	OnDeliver   func(n int) // newly in-order payload bytes at the receiver
	OnEOF       func()      // peer's FIN delivered in order
	OnClosed    func()      // our FIN acknowledged
	OnError     func(err error)
}

func newConn(s *Stack, local, remote packet.Addr, active bool) *Conn {
	cfg := s.cfg
	c := &Conn{
		stack:    s,
		cfg:      cfg,
		local:    local,
		remote:   remote,
		active:   active,
		state:    StateClosed,
		cwnd:     float64(cfg.InitialCwnd * cfg.MSS),
		ssthresh: float64(cfg.RcvWnd), // effectively "infinite" start
		rto:      cfg.InitialRTO,
		alpha:    1, // DCTCP: conservative start per RFC 8257
		sndUna:   0,
		sndNxt:   0,
		rcvNxt:   0,
		appEnd:   1, // data begins at sequence 1 (SYN occupies 0)
	}
	c.rtxTimer = sim.NewTimer(s.eng, c.onRTO)
	c.delackTimer = sim.NewTimer(s.eng, c.flushDelayedAck)
	c.synTimer = sim.NewTimer(s.eng, c.onSynTimeout)
	return c
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() packet.Addr { return c.local }

// RemoteAddr returns the connection's remote address.
func (c *Conn) RemoteAddr() packet.Addr { return c.remote }

// State returns the current state.
func (c *Conn) State() State { return c.state }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool {
	return c.state == StateEstablished || c.state == StateFinSent || c.state == StateDone
}

// Cwnd returns the congestion window in bytes (diagnostics).
func (c *Conn) Cwnd() float64 { return c.cwnd }

// Alpha returns DCTCP's marked-fraction estimate (diagnostics).
func (c *Conn) Alpha() float64 { return c.alpha }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() units.Duration { return units.Duration(c.srtt * float64(units.Second)) }

// BytesDelivered returns in-order payload delivered to the application.
func (c *Conn) BytesDelivered() units.ByteSize { return c.delivered }

// BytesQueued returns payload bytes the application queued so far.
func (c *Conn) BytesQueued() units.ByteSize { return units.ByteSize(c.appEnd - 1) }

// BytesAcked returns payload bytes acknowledged by the peer.
func (c *Conn) BytesAcked() units.ByteSize {
	acked := int64(c.sndUna) - 1
	if acked < 0 {
		acked = 0
	}
	if c.finSent && c.sndUna > c.finSeq {
		acked-- // don't count the FIN's sequence slot
	}
	return units.ByteSize(acked)
}

// ----------------------------------------------------------------------
// Packet construction

func (c *Conn) newPacket(flags packet.TCPFlags, seq uint64, payload int) *packet.Packet {
	// Pool-allocated: the fabric releases the packet at its drop or final
	// delivery site, so the connection must not hold on to it after Send.
	p := c.stack.host.AllocPacket()
	p.Src = c.local
	p.Dst = c.remote
	p.Seq = seq
	p.Flags = flags
	p.Payload = payload
	p.TTL = 64
	p.TSVal = c.stack.eng.Now()
	if flags.Has(packet.FlagACK) {
		p.Ack = c.rcvNxt
		p.TSEcr = c.lastTSVal
	}
	return p
}

// sendSegment emits a data segment [seq, seq+n) (or a FIN when n==0 and fin
// is set). Data segments are ECT-capable when ECN was negotiated; everything
// else is Non-ECT — the asymmetry at the heart of the paper.
func (c *Conn) sendSegment(seq uint64, n int, fin bool) {
	flags := packet.FlagACK
	if fin {
		flags |= packet.FlagFIN
	}
	p := c.newPacket(flags, seq, n)
	if n > 0 && c.ecnOn {
		p.ECN = packet.ECT0
		if c.cwrPending {
			p.Flags |= packet.FlagCWR
			c.cwrPending = false
		}
	}
	c.stack.stats.SegmentsSent++
	c.stack.stats.BytesSent += units.ByteSize(n)
	c.stack.host.Send(p)
	if !c.rtxTimer.Armed() {
		c.rtxTimer.Reset(c.rto)
	}
}

// sendPureAck emits an immediate acknowledgement. ECE is set from the
// variant's receiver state; pure ACKs are always Non-ECT. When data is
// buffered out of order, SACK blocks describe it.
func (c *Conn) sendPureAck() {
	c.delackCount = 0
	c.delackTimer.Stop()
	p := c.newPacket(packet.FlagACK, c.sndNxt, 0)
	if c.recvECEBit() {
		p.Flags |= packet.FlagECE
		c.stack.stats.EceAcksSent++
	}
	if c.cfg.SACK && len(c.ooo) > 0 {
		n := len(c.ooo)
		if n > c.cfg.MaxSACKBlocks {
			n = c.cfg.MaxSACKBlocks
		}
		// Reuse the pooled packet's SACK capacity from its previous life.
		blocks := p.SACK[:0]
		for i := 0; i < n; i++ {
			blocks = append(blocks, packet.SACKBlock{Start: c.ooo[i].start, End: c.ooo[i].end})
		}
		p.SACK = blocks
	}
	p.Wire = c.cfg.AckWireSize
	c.stack.stats.AcksSent++
	c.stack.host.Send(p)
}

// recvECEBit computes the ECE flag for outgoing ACKs.
func (c *Conn) recvECEBit() bool {
	if !c.ecnOn {
		return false
	}
	if c.cfg.Variant == DCTCP {
		return c.ceState
	}
	return c.eceLatched
}

// ----------------------------------------------------------------------
// Handshake

// startHandshake begins the active open.
func (c *Conn) startHandshake() {
	c.state = StateSynSent
	c.sendSYN()
}

func (c *Conn) sendSYN() {
	flags := packet.FlagSYN
	if c.cfg.Variant.ECNEnabled() {
		// RFC 3168: ECN-setup SYN carries ECE|CWR. This is why the paper's
		// ECE-bit protection mode also shields connection setup.
		flags |= packet.FlagECE | packet.FlagCWR
	}
	p := c.newPacket(flags, 0, 0)
	p.Wire = c.cfg.AckWireSize
	c.stack.host.Send(p)
	d := c.cfg.SynRTO
	for i := 0; i < c.synRetries; i++ {
		d *= 2
	}
	c.synTimer.Reset(d)
}

func (c *Conn) sendSYNACK() {
	flags := packet.FlagSYN | packet.FlagACK
	if c.ecnOn {
		// RFC 3168: ECN-setup SYN-ACK carries ECE only.
		flags |= packet.FlagECE
	}
	p := c.newPacket(flags, 0, 0)
	p.Wire = c.cfg.AckWireSize
	c.stack.host.Send(p)
	d := c.cfg.SynRTO
	for i := 0; i < c.synRetries; i++ {
		d *= 2
	}
	c.synTimer.Reset(d)
}

func (c *Conn) onSynTimeout() {
	c.synRetries++
	c.stack.stats.SynRetries++
	if c.synRetries > c.cfg.MaxSynRetries {
		c.fail(fmt.Errorf("tcp: connection to %v timed out in %v", c.remote, c.state))
		return
	}
	switch c.state {
	case StateSynSent:
		c.sendSYN()
	case StateSynRcvd:
		c.sendSYNACK()
	}
}

func (c *Conn) fail(err error) {
	c.state = StateClosed
	c.teardownTimers()
	c.stack.stats.ConnsFailed++
	c.stack.remove(c)
	if c.OnError != nil {
		c.OnError(err)
	}
}

func (c *Conn) teardownTimers() {
	c.rtxTimer.Stop()
	c.delackTimer.Stop()
	c.synTimer.Stop()
}

func (c *Conn) becomeEstablished() {
	c.state = StateEstablished
	c.synTimer.Stop()
	c.stack.stats.ConnsEstablished++
	if c.OnConnected != nil {
		c.OnConnected()
	}
	c.trySend()
}

// ----------------------------------------------------------------------
// Application API

// Send queues n more payload bytes for transmission. Only byte counts are
// modelled; there is no payload content.
func (c *Conn) Send(n int) {
	c.tsqTouch()
	if n <= 0 {
		return
	}
	if c.closeQueued {
		panic("tcp: Send after Close")
	}
	c.appEnd += uint64(n)
	if c.Established() {
		c.trySend()
	}
}

// Close queues an orderly FIN after all queued data.
func (c *Conn) Close() {
	c.tsqTouch()
	if c.closeQueued {
		return
	}
	c.closeQueued = true
	c.finSeq = c.appEnd
	if c.Established() {
		c.trySend()
	}
}

// ----------------------------------------------------------------------
// Sender

// flightSize returns unacknowledged bytes in the network.
func (c *Conn) flightSize() uint64 { return c.sndNxt - c.sndUna }

// window returns the current usable send window in bytes.
func (c *Conn) window() float64 {
	w := c.cwnd
	if rw := float64(c.cfg.RcvWnd); rw < w {
		w = rw
	}
	return w
}

// highestSacked returns the top of the scoreboard (or sndUna if empty).
func (c *Conn) highestSacked() uint64 {
	if len(c.scoreboard) == 0 {
		return c.sndUna
	}
	return c.scoreboard[len(c.scoreboard)-1].end
}

// lossUpper returns the sequence below which unsacked bytes count as lost.
func (c *Conn) lossUpper() uint64 {
	if c.rtoLoss {
		return c.sndNxt
	}
	if c.inRecovery && c.cfg.SACK {
		return c.highestSacked()
	}
	return c.sndUna // no loss assumed outside recovery
}

// pipe estimates bytes actually in the network (RFC 6675 Pipe, simplified):
// flight minus selectively-acked bytes minus deemed-lost bytes, plus
// this-episode retransmissions (which are within the lost region).
func (c *Conn) pipe() float64 {
	flight := float64(c.flightSize())
	if !c.cfg.SACK {
		return flight
	}
	sacked := float64(rangeBytes(c.scoreboard, c.sndUna, c.sndNxt))
	upper := c.lossUpper()
	lost := 0.0
	if upper > c.sndUna {
		holeBytes := float64(upper-c.sndUna) - float64(rangeBytes(c.scoreboard, c.sndUna, upper))
		retx := float64(rangeBytes(c.retxMark, c.sndUna, upper))
		lost = holeBytes - retx
		if lost < 0 {
			lost = 0
		}
	}
	p := flight - sacked - lost
	if p < 0 {
		p = 0
	}
	return p
}

// nextHole finds the lowest unsacked, not-yet-retransmitted segment below
// the loss boundary. ok is false when no hole remains.
func (c *Conn) nextHole() (start, end uint64, fin, ok bool) {
	upper := c.lossUpper()
	pos := c.sndUna
	for pos < upper {
		moved := false
		if e, in := containing(c.scoreboard, pos); in {
			pos, moved = e, true
		}
		if e, in := containing(c.retxMark, pos); in {
			pos, moved = e, true
		}
		if !moved {
			break
		}
	}
	if pos >= upper {
		return 0, 0, false, false
	}
	if c.finSent && pos == c.finSeq {
		return pos, pos + 1, true, true
	}
	end = pos + uint64(c.cfg.MSS)
	if end > c.appEnd {
		end = c.appEnd
	}
	// Stop at the next sacked/retransmitted range or the loss boundary.
	if nxt := nextRangeStart(c.scoreboard, pos); nxt < end {
		end = nxt
	}
	if nxt := nextRangeStart(c.retxMark, pos); nxt < end {
		end = nxt
	}
	if end > upper {
		end = upper
	}
	if end <= pos {
		return 0, 0, false, false
	}
	return pos, end, false, true
}

// trySend transmits what the window allows and, if the host egress queue
// stopped it, parks the connection until the queue drains.
func (c *Conn) trySend() {
	if c.send() {
		c.stack.tsqBlock(c)
	}
}

// canSend reports whether send would get past its window check: the
// connection is established, not done, and has at least a byte of window
// over the pipe.
func (c *Conn) canSend() bool {
	return c.Established() && c.state != StateDone && c.window()-c.pipe() >= 1
}

// tsqTouch lists a parked connection for the next TSQ wake's re-check. Every
// handler that can change what canSend reads calls it first (see tsqWake).
func (c *Conn) tsqTouch() {
	if c.tsqWaiting && !c.tsqChanged {
		c.tsqChanged = true
		c.stack.tsqChanged = append(c.stack.tsqChanged, c)
	}
}

// send transmits retransmissions (during loss recovery) and new segments,
// bounded by cwnd-vs-pipe. It reports whether it stopped at the TSQ limit
// with window left; canSend mirrors its checks before that one.
func (c *Conn) send() (atLimit bool) {
	if !c.Established() || c.state == StateDone {
		return false
	}
	if c.sndNxt == 0 {
		c.sndNxt = 1 // SYN consumed sequence 0
	}
	for {
		budget := c.window() - c.pipe()
		if budget < 1 {
			return false
		}
		// TSQ: don't flood the local NIC queue; resume when it drains.
		if c.cfg.TSQLimit > 0 {
			if up := c.stack.host.Uplink(); up != nil && up.Queue().BytesQueued() >= c.cfg.TSQLimit {
				return true
			}
		}
		// 1. Fill holes first while recovering (SACK mode only; legacy
		// NewReno retransmits via explicit calls).
		if c.cfg.SACK && (c.inRecovery || c.rtoLoss) {
			if start, end, fin, ok := c.nextHole(); ok {
				if fin {
					c.sendSegment(start, 0, true)
				} else {
					c.sendSegment(start, int(end-start), false)
				}
				c.retxMark = mergeRange(c.retxMark, interval{start, end})
				if c.rtoLoss {
					c.stack.stats.RTORetransmits++
				} else {
					c.stack.stats.FastRetransmits++
				}
				continue
			}
		}
		// 2. New data.
		if c.sndNxt < c.appEnd {
			n := int(c.appEnd - c.sndNxt)
			if n > c.cfg.MSS {
				n = c.cfg.MSS
			}
			if float64(n) > budget && c.flightSize() > 0 {
				return false // don't emit runt segments while data is in flight
			}
			c.sendSegment(c.sndNxt, n, false)
			c.sndNxt += uint64(n)
			continue
		}
		// 3. FIN.
		if c.closeQueued && !c.finSent && c.sndNxt == c.finSeq {
			c.sendSegment(c.sndNxt, 0, true)
			c.finSent = true
			c.sndNxt++
			if c.state == StateEstablished {
				c.state = StateFinSent
			}
			return false
		}
		return false
	}
}

// retransmit resends the segment starting at sndUna (legacy NewReno path and
// the non-SACK RTO path).
func (c *Conn) retransmit() {
	seq := c.sndUna
	if c.finSent && seq == c.finSeq {
		c.sendSegment(seq, 0, true)
		return
	}
	end := seq + uint64(c.cfg.MSS)
	if lim := c.appEnd; end > lim {
		end = lim
	}
	if end <= seq {
		return // nothing outstanding but the timer raced; ignore
	}
	c.sendSegment(seq, int(end-seq), false)
}

// enterFastRecovery begins SACK-based loss recovery.
func (c *Conn) enterFastRecovery() {
	mss := float64(c.cfg.MSS)
	nw := float64(c.flightSize()) / 2
	if nw < 2*mss {
		nw = 2 * mss
	}
	c.ssthresh = nw
	c.cwnd = nw
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.retxMark = nil
	c.trySend()
}

// onRTO fires when the retransmission timer expires: collapse the window,
// deem everything unsacked lost, and rebuild from the oldest hole. This is
// the catastrophic event the paper attributes to whole-window ACK loss.
func (c *Conn) onRTO() {
	c.tsqTouch()
	if c.flightSize() == 0 {
		return
	}
	c.stack.stats.RTOEvents++
	mss := float64(c.cfg.MSS)
	half := float64(c.flightSize()) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = mss
	c.dupAcks = 0
	c.inRecovery = false
	c.rtoLoss = true
	c.recoverSeq = c.sndNxt
	c.retxMark = nil
	c.rtoBackoff++
	c.rto *= 2
	if c.rto > c.cfg.MaxRTO {
		c.rto = c.cfg.MaxRTO
	}
	if c.cfg.SACK {
		c.trySend() // fills the first hole(s) under the 1-MSS window
	} else {
		c.stack.stats.RTORetransmits++
		c.retransmit()
	}
	c.rtxTimer.Reset(c.rto)
}

// updateRTT folds a new sample into SRTT/RTTVAR (RFC 6298).
func (c *Conn) updateRTT(sample units.Duration) {
	if sample <= 0 {
		return
	}
	s := sample.Seconds()
	if c.srtt == 0 {
		c.srtt = s
		c.rttvar = s / 2
	} else {
		diff := c.srtt - s
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = 0.75*c.rttvar + 0.25*diff
		c.srtt = 0.875*c.srtt + 0.125*s
	}
	rto := units.Duration((c.srtt + 4*c.rttvar) * float64(units.Second))
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	c.rto = rto
	c.rtoBackoff = 0
}

// onAckSegment processes the acknowledgement fields of an arriving segment.
func (c *Conn) onAckSegment(p *packet.Packet) {
	ack := p.Ack
	if ack > c.sndNxt {
		return // acks data we never sent; ignore
	}
	// Fold SACK blocks into the scoreboard before any decision.
	if c.cfg.SACK && len(p.SACK) > 0 {
		for _, b := range p.SACK {
			if b.End > b.Start && b.End <= c.sndNxt && b.End > c.sndUna {
				start := b.Start
				if start < c.sndUna {
					start = c.sndUna
				}
				c.scoreboard = mergeRange(c.scoreboard, interval{start, b.End})
			}
		}
	}
	switch {
	case ack > c.sndUna:
		c.onNewAck(p, ack)
	case ack == c.sndUna && p.Payload == 0 && !p.Flags.HasAny(packet.FlagSYN|packet.FlagFIN) && c.flightSize() > 0:
		c.onDupAck()
	}
	// SACK-triggered recovery: enough selectively-acked bytes above a hole
	// imply loss even before three classic duplicate ACKs accumulate.
	if c.cfg.SACK && !c.inRecovery && !c.rtoLoss &&
		rangeBytes(c.scoreboard, c.sndUna, c.sndNxt) >= uint64(3*c.cfg.MSS) {
		c.enterFastRecovery()
	}
	// ECN reactions ride on any ACK, new or duplicate.
	if p.Flags.Has(packet.FlagECE) && c.ecnOn {
		c.onECE(ack)
	}
	c.trySend()
}

func (c *Conn) onNewAck(p *packet.Packet, ack uint64) {
	newly := ack - c.sndUna
	mss := float64(c.cfg.MSS)

	// DCTCP per-window marked-byte accounting.
	if c.cfg.Variant == DCTCP && c.ecnOn {
		c.obsAcked += newly
		if p.Flags.Has(packet.FlagECE) {
			c.obsMarked += newly
		}
		if ack >= c.obsWindowEnd {
			frac := 0.0
			if c.obsAcked > 0 {
				frac = float64(c.obsMarked) / float64(c.obsAcked)
			}
			c.alpha = (1-c.cfg.DCTCPg)*c.alpha + c.cfg.DCTCPg*frac
			c.obsAcked, c.obsMarked = 0, 0
			c.obsWindowEnd = c.sndNxt
		}
	}

	if p.TSEcr > 0 {
		c.updateRTT(c.stack.eng.Now().Sub(p.TSEcr))
	}

	recovering := c.inRecovery || c.rtoLoss
	switch {
	case recovering && ack >= c.recoverSeq:
		// Full acknowledgement: leave recovery.
		if c.inRecovery {
			c.cwnd = c.ssthresh
		}
		c.inRecovery = false
		c.rtoLoss = false
		c.retxMark = nil
		c.dupAcks = 0
	case recovering && c.cfg.SACK:
		// Partial ACK with SACK: the pipe shrinks; trySend (from the
		// caller) fills the next hole. During post-RTO slow start the
		// window still grows.
		if c.rtoLoss && c.cwnd < c.ssthresh {
			inc := float64(newly)
			if inc > 2*mss {
				inc = 2 * mss
			}
			c.cwnd += inc
		}
	case recovering:
		// NewReno partial ACK (no SACK): retransmit the next hole, deflate.
		c.sndUna = ack
		c.retxAdvance(ack)
		c.retransmit()
		c.cwnd -= float64(newly)
		if c.cwnd < mss {
			c.cwnd = mss
		}
		c.cwnd += mss
		c.rtxTimer.Reset(c.rto)
		return
	default:
		if c.cwnd < c.ssthresh {
			// Slow start with ABC: up to two MSS per delayed ACK.
			inc := float64(newly)
			if inc > 2*mss {
				inc = 2 * mss
			}
			c.cwnd += inc
		} else {
			c.cwnd += mss * mss / c.cwnd
		}
		c.dupAcks = 0
	}

	c.sndUna = ack
	c.retxAdvance(ack)
	if c.flightSize() > 0 {
		c.rtxTimer.Reset(c.rto)
	} else {
		c.rtxTimer.Stop()
	}

	if c.finSent && c.sndUna > c.finSeq && c.state == StateFinSent {
		c.state = StateDone
		c.rtxTimer.Stop()
		if c.OnClosed != nil {
			c.OnClosed()
		}
	}
}

func (c *Conn) onDupAck() {
	if c.cfg.SACK {
		if c.inRecovery || c.rtoLoss {
			return // pipe accounting drives (re)transmission
		}
		c.dupAcks++
		if c.dupAcks >= 3 {
			c.enterFastRecovery()
		}
		return
	}
	// Legacy NewReno without SACK.
	if c.inRecovery {
		c.cwnd += float64(c.cfg.MSS) // inflate during recovery
		return
	}
	c.dupAcks++
	if c.dupAcks < 3 {
		return
	}
	mss := float64(c.cfg.MSS)
	half := float64(c.flightSize()) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = c.ssthresh + 3*mss
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.stack.stats.FastRetransmits++
	c.retransmit()
	c.rtxTimer.Reset(c.rto)
}

// retxAdvance trims sender-side range bookkeeping below the new cumulative
// acknowledgement.
func (c *Conn) retxAdvance(ack uint64) {
	c.scoreboard = trimBelow(c.scoreboard, ack)
	c.retxMark = trimBelow(c.retxMark, ack)
}

// onECE reacts to a congestion echo: classic ECN halves once per window;
// DCTCP cuts proportionally to alpha once per window.
func (c *Conn) onECE(ack uint64) {
	if c.sndUna <= c.ecnRecoverSeq && c.ecnRecoverSeq > 0 {
		return // already reacted this window
	}
	mss := float64(c.cfg.MSS)
	switch c.cfg.Variant {
	case RenoECN:
		half := c.cwnd / 2
		if half < 2*mss {
			half = 2 * mss
		}
		c.ssthresh = half
		c.cwnd = half
	case DCTCP:
		c.cwnd = c.cwnd * (1 - c.alpha/2)
		if c.cwnd < 2*mss {
			c.cwnd = 2 * mss
		}
		c.ssthresh = c.cwnd
	default:
		return
	}
	c.stack.stats.CwndCuts++
	c.cwrPending = true
	c.ecnRecoverSeq = c.sndNxt
}

// ----------------------------------------------------------------------
// Receiver

// deliver is the stack's entry point for a packet addressed to this conn.
func (c *Conn) deliver(p *packet.Packet) {
	switch c.state {
	case StateClosed:
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) && !c.active {
			// Passive open.
			c.rcvNxt = p.Seq + 1
			c.lastTSVal = p.TSVal
			c.ecnOn = c.cfg.Variant.ECNEnabled() && p.Flags.Has(packet.FlagECE|packet.FlagCWR)
			c.state = StateSynRcvd
			c.sndNxt = 1
			c.sendSYNACK()
		}
		return
	case StateSynSent:
		if p.Flags.Has(packet.FlagSYN | packet.FlagACK) {
			c.rcvNxt = p.Seq + 1
			c.lastTSVal = p.TSVal
			c.ecnOn = c.cfg.Variant.ECNEnabled() && p.Flags.Has(packet.FlagECE) && !p.Flags.Has(packet.FlagCWR)
			c.sndUna = 1
			c.sndNxt = 1
			if p.TSEcr > 0 {
				c.updateRTT(c.stack.eng.Now().Sub(p.TSEcr))
			}
			c.becomeEstablished()
			// Complete the handshake. If data is already queued trySend has
			// begun; ensure at least one ACK crosses.
			c.sendPureAck()
		}
		return
	case StateSynRcvd:
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
			c.sendSYNACK() // duplicate SYN: our SYN-ACK was lost
			return
		}
		if p.Flags.Has(packet.FlagACK) && p.Ack >= 1 {
			c.sndUna = p.Ack
			if p.TSEcr > 0 {
				c.updateRTT(c.stack.eng.Now().Sub(p.TSEcr))
			}
			c.becomeEstablished()
			// Fall through: the establishing segment may carry data.
		} else {
			return
		}
	}

	if p.Flags.Has(packet.FlagSYN|packet.FlagACK) && c.active {
		// Duplicate SYN-ACK: our handshake ACK was lost. Re-ack.
		c.sendPureAck()
		return
	}

	if p.Flags.Has(packet.FlagACK) {
		c.onAckSegment(p)
	}
	if p.Payload > 0 || p.Flags.Has(packet.FlagFIN) {
		c.onDataSegment(p)
	}
}

// onDataSegment runs the receive path: CE accounting, reassembly, in-order
// delivery, FIN handling and ACK generation.
func (c *Conn) onDataSegment(p *packet.Packet) {
	// ECN receiver state.
	if c.ecnOn && p.Payload > 0 {
		ce := p.ECN == packet.CE
		if ce {
			p.SawCE = true
		}
		if c.cfg.Variant == DCTCP {
			// RFC 8257 state machine: on a CE-state change, immediately ACK
			// previously received data with the *old* ECE value.
			if ce != c.ceState {
				if c.delackCount > 0 {
					c.sendPureAck()
				}
				c.ceState = ce
			}
		} else {
			if ce {
				c.eceLatched = true
			}
			if p.Flags.Has(packet.FlagCWR) {
				c.eceLatched = false
			}
		}
	}

	seq, end := p.Seq, p.Seq+uint64(p.Payload)
	if p.Flags.Has(packet.FlagFIN) {
		c.finRcvd = true
		c.finRcvdSeq = end // FIN occupies the sequence slot after payload
	}

	advanced := false
	switch {
	case end <= c.rcvNxt && !(p.Flags.Has(packet.FlagFIN) && c.rcvNxt == c.finRcvdSeq):
		// Entirely duplicate data: re-ack immediately so a retransmitting
		// peer converges.
		c.sendPureAck()
		return
	case seq > c.rcvNxt:
		// Out of order: buffer and send an immediate duplicate ACK.
		c.insertOOO(interval{seq, end})
		c.sendPureAck()
		return
	default:
		// In order (possibly with overlap).
		if end > c.rcvNxt {
			c.deliverBytes(int(end - c.rcvNxt))
			c.rcvNxt = end
			advanced = true
		}
		c.lastTSVal = p.TSVal
		// Pull any now-contiguous buffered intervals.
		for len(c.ooo) > 0 && c.ooo[0].start <= c.rcvNxt {
			if c.ooo[0].end > c.rcvNxt {
				c.deliverBytes(int(c.ooo[0].end - c.rcvNxt))
				c.rcvNxt = c.ooo[0].end
			}
			c.ooo = c.ooo[1:]
		}
	}

	// Consume an in-order FIN.
	if c.finRcvd && c.rcvNxt == c.finRcvdSeq && !c.eofSignaled {
		c.rcvNxt++ // FIN consumes one sequence number
		c.eofSignaled = true
		c.sendPureAck()
		if c.OnEOF != nil {
			c.OnEOF()
		}
		return
	}

	if !advanced {
		c.sendPureAck()
		return
	}

	// ACK policy: delayed ACK unless disabled or quota reached.
	if !c.cfg.DelayedAck {
		c.sendPureAck()
		return
	}
	c.delackCount++
	if c.delackCount >= c.cfg.DelAckSegments {
		c.sendPureAck()
		return
	}
	if !c.delackTimer.Armed() {
		c.delackTimer.Reset(c.cfg.DelAckTimeout)
	}
}

func (c *Conn) flushDelayedAck() {
	if c.delackCount > 0 {
		c.sendPureAck()
	}
}

func (c *Conn) deliverBytes(n int) {
	c.delivered += units.ByteSize(n)
	c.stack.stats.BytesDelivered += units.ByteSize(n)
	if c.OnDeliver != nil {
		c.OnDeliver(n)
	}
}

// insertOOO merges an interval into the sorted out-of-order list.
func (c *Conn) insertOOO(iv interval) { c.ooo = mergeRange(c.ooo, iv) }

// ----------------------------------------------------------------------
// Sorted disjoint interval lists (scoreboard, retransmit marks, reassembly)

// mergeRange inserts iv into the sorted disjoint list, coalescing overlaps.
func mergeRange(list []interval, iv interval) []interval {
	if iv.end <= iv.start {
		return list
	}
	i := 0
	for i < len(list) && list[i].start < iv.start {
		i++
	}
	list = append(list, interval{})
	copy(list[i+1:], list[i:])
	list[i] = iv
	merged := list[:1]
	for _, nxt := range list[1:] {
		last := &merged[len(merged)-1]
		if nxt.start <= last.end {
			if nxt.end > last.end {
				last.end = nxt.end
			}
		} else {
			merged = append(merged, nxt)
		}
	}
	return merged
}

// trimBelow removes everything under seq from the sorted list.
func trimBelow(list []interval, seq uint64) []interval {
	out := list[:0]
	for _, iv := range list {
		if iv.end <= seq {
			continue
		}
		if iv.start < seq {
			iv.start = seq
		}
		out = append(out, iv)
	}
	return out
}

// rangeBytes counts bytes of the list that fall within [lo, hi).
func rangeBytes(list []interval, lo, hi uint64) uint64 {
	var total uint64
	for _, iv := range list {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
		}
	}
	return total
}

// containing returns the end of the list interval containing pos, if any.
func containing(list []interval, pos uint64) (end uint64, ok bool) {
	for _, iv := range list {
		if iv.start <= pos && pos < iv.end {
			return iv.end, true
		}
		if iv.start > pos {
			break
		}
	}
	return 0, false
}

// nextRangeStart returns the start of the first interval beginning after
// pos, or the maximum uint64 if none.
func nextRangeStart(list []interval, pos uint64) uint64 {
	for _, iv := range list {
		if iv.start > pos {
			return iv.start
		}
	}
	return ^uint64(0)
}
