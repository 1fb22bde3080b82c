package tcp

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// connKey identifies a connection on a stack: local port plus remote
// address, packed into one word (local port, remote node, remote port from
// the high bits down) so the per-packet demux hashes a uint64. The local
// node is implicit: the stack's host.
type connKey uint64

// makeConnKey packs a connection's identity into its key.
func makeConnKey(localPort uint16, remote packet.Addr) connKey {
	return connKey(uint64(localPort)<<48 | uint64(uint32(remote.Node))<<16 | uint64(remote.Port))
}

// Listener accepts inbound connections on a port.
type Listener struct {
	port   uint16
	accept func(*Conn)
}

// Stack is the per-host transport layer. It owns demultiplexing, port
// allocation and connection creation, and implements netsim.Protocol.
type Stack struct {
	host *netsim.Host
	eng  *sim.Engine
	cfg  Config

	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16

	// TSQ backpressure (see tsqWake): tsqLine holds the connections parked
	// because the host egress queue is at the limit, in FIFO order;
	// tsqChanged holds the parked connections that ran a handler, or
	// parked, since the last wake. Both buffers are reused, so the
	// park/wake cycle allocates nothing in steady state.
	tsqLine    []*Conn
	tsqChanged []*Conn
	tsqHooked  bool

	stats *Stats
}

// NewStack attaches a transport to host with the given defaults. All stacks
// in one experiment usually share a single Stats.
func NewStack(host *netsim.Host, cfg Config, stats *Stats) *Stack {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if stats == nil {
		stats = &Stats{}
	}
	s := &Stack{
		host:      host,
		eng:       host.Engine(),
		cfg:       cfg,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  49152,
		stats:     stats,
	}
	host.AttachProtocol(s)
	return s
}

// Host returns the attached host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Engine returns the engine the stack's events run on — the host's shard
// engine.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// Config returns the stack's default configuration.
func (s *Stack) Config() Config { return s.cfg }

// Stats returns the shared counter block.
func (s *Stack) Stats() *Stats { return s.stats }

// Listen registers an acceptor for inbound connections to port. The accept
// callback runs when a valid SYN arrives, with the new (not yet established)
// connection; application callbacks may be installed on it immediately.
func (s *Stack) Listen(port uint16, accept func(*Conn)) *Listener {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcp: duplicate listener on %s port %d", s.host.Name, port))
	}
	l := &Listener{port: port, accept: accept}
	s.listeners[port] = l
	return l
}

// Close removes a listener. Established connections are unaffected.
func (s *Stack) CloseListener(l *Listener) { delete(s.listeners, l.port) }

// allocPort returns a free ephemeral port.
func (s *Stack) allocPort(remote packet.Addr) uint16 {
	for i := 0; i < 1<<16; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if _, used := s.conns[makeConnKey(p, remote)]; !used && p != 0 {
			if _, listening := s.listeners[p]; !listening {
				return p
			}
		}
	}
	panic("tcp: ephemeral ports exhausted")
}

// Dial opens a connection to dst and begins the handshake immediately.
func (s *Stack) Dial(dst packet.Addr) *Conn {
	local := packet.Addr{Node: s.host.ID(), Port: s.allocPort(dst)}
	c := newConn(s, local, dst, true)
	s.conns[makeConnKey(local.Port, dst)] = c
	c.startHandshake()
	return c
}

// Deliver implements netsim.Protocol: demultiplex an arriving packet.
func (s *Stack) Deliver(p *packet.Packet) {
	key := makeConnKey(p.Dst.Port, p.Src)
	if c, ok := s.conns[key]; ok {
		c.tsqTouch()
		c.deliver(p)
		return
	}
	// No connection: maybe a listener can take a SYN.
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		if l, ok := s.listeners[p.Dst.Port]; ok {
			local := packet.Addr{Node: s.host.ID(), Port: p.Dst.Port}
			c := newConn(s, local, p.Src, false)
			s.conns[key] = c
			if l.accept != nil {
				l.accept(c)
			}
			c.deliver(p)
			return
		}
	}
	// Stray segment (e.g. retransmitted FIN to a removed conn): ignore.
	// Real stacks send RST; nothing in the studied workloads needs it.
}

// remove forgets a closed connection.
func (s *Stack) remove(c *Conn) {
	delete(s.conns, makeConnKey(c.local.Port, c.remote))
}

// tsqBlock parks a connection at the tail of the TSQ line until the host
// egress queue drains below the limit. The first use lazily hooks the
// uplink's completion callback. Only send's caller parks, after send found
// an uplink at the limit, so the uplink exists.
func (s *Stack) tsqBlock(c *Conn) {
	if c.tsqWaiting {
		return
	}
	if !s.tsqHooked {
		s.tsqHooked = true
		up := s.host.Uplink()
		prev := up.OnSent
		up.OnSent = func(p *packet.Packet) {
			if prev != nil {
				prev(p)
			}
			s.tsqWake()
		}
	}
	c.tsqWaiting = true
	s.tsqLine = append(s.tsqLine, c)
	c.tsqTouch() // its handler may change it after it parks
}

// tsqWake runs each time the uplink finishes a packet. Its result is that
// of resuming every parked connection in FIFO order, each one re-parking at
// the tail if it still finds the queue at the limit, but it calls only the
// connections that find the queue under the limit:
//
//   - It resumes connections from the front only while the uplink's queue
//     is under the limit. The queue cannot shrink during a wake: portTxDone
//     calls OnSent before transmitNext, with the transmitter still busy, so
//     a send inside the wake only enqueues; a port dequeues only when its
//     transmitter frees, or in Send when it is idle, and an idle port's
//     queue is empty; and no qdisc's Enqueue removes a queued packet. So once
//     one resumed connection finds the queue at the limit, every later one
//     in this wake would too.
//   - A connection that stops at the limit with window left stays first in
//     line: a full resume would have re-parked it first, ahead of everyone it
//     had not resumed yet.
//   - Everyone behind it stays in place without being called. A full resume
//     would re-park each of them in the same order (window left), or drop it
//     from the line (not established, done, or window()-pipe() < 1). That
//     outcome reads only the connection's own fields, which change only in
//     its own handlers: Stack.Deliver, the RTO timer, Send, Close and this
//     resume. The delayed-ACK timer touches none of them (flushDelayedAck
//     only sends a pure ACK), and the SYN timer is stopped for good once a
//     connection is established, as every parked one is. Those handlers and
//     tsqBlock list a parked connection in tsqChanged (tsqTouch), so one that
//     is not listed can still send, and the wake re-checks only the listed
//     ones.
//
// Every connection holds a copy of the stack's config, so s.cfg.TSQLimit is
// the limit send compares with. The list is empty whenever the line is: a
// connection is listed only while parked, and only a wake un-parks it.
func (s *Stack) tsqWake() {
	if len(s.tsqLine) == 0 {
		return
	}
	q, limit := s.host.Uplink().Queue(), s.cfg.TSQLimit
	n := 0 // connections resumed that left the line
	for n < len(s.tsqLine) && q.BytesQueued() < limit {
		c := s.tsqLine[n]
		if c.send() {
			break // stopped at the limit: stays first
		}
		c.tsqWaiting = false
		n++
	}
	s.tsqLine = slices.Delete(s.tsqLine, 0, n)
	for i, c := range s.tsqChanged {
		s.tsqChanged[i] = nil
		c.tsqChanged = false
		if c.tsqWaiting && !c.canSend() {
			c.tsqWaiting = false
			k := slices.Index(s.tsqLine, c)
			s.tsqLine = slices.Delete(s.tsqLine, k, k+1)
		}
	}
	s.tsqChanged = s.tsqChanged[:0]
}

// ConnCount returns the number of live connections (for tests).
func (s *Stack) ConnCount() int { return len(s.conns) }
