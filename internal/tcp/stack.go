package tcp

import (
	"fmt"

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

	// TSQ backpressure: connections paused because the host egress queue
	// holds too many bytes, woken in FIFO order as packets serialize.
	// tsqSpare is the previous wake's batch buffer, recycled so the
	// park/wake cycle allocates nothing in steady state.
	tsqQueue  []*Conn
	tsqSpare  []*Conn
	tsqHooked bool

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

// tsqBlock parks a connection until the host egress queue drains below the
// TSQ limit. The first use lazily hooks the uplink's completion callback.
func (s *Stack) tsqBlock(c *Conn) {
	if c.tsqWaiting {
		return
	}
	if !s.tsqHooked {
		up := s.host.Uplink()
		if up == nil {
			return // no uplink yet: nothing to wait for, caller proceeds
		}
		s.tsqHooked = true
		prev := up.OnSent
		up.OnSent = func(p *packet.Packet) {
			if prev != nil {
				prev(p)
			}
			s.tsqWake()
		}
	}
	c.tsqWaiting = true
	s.tsqQueue = append(s.tsqQueue, c)
}

// tsqWake resumes every parked connection, in FIFO order. Connections that
// are still over the limit re-park themselves (into the recycled spare
// buffer, so neither side of the swap allocates).
func (s *Stack) tsqWake() {
	if len(s.tsqQueue) == 0 {
		return
	}
	batch := s.tsqQueue
	s.tsqQueue = s.tsqSpare[:0]
	for _, c := range batch {
		c.tsqWaiting = false
		c.trySend()
	}
	for i := range batch {
		batch[i] = nil
	}
	s.tsqSpare = batch[:0]
}

// ConnCount returns the number of live connections (for tests).
func (s *Stack) ConnCount() int { return len(s.conns) }
