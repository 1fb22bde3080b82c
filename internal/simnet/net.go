package simnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Epoch anchors the virtual clock to wall-clock types: virtual time v
// corresponds to Epoch.Add(v). Unmodified code that computes deadlines from
// time.Now() lands decades past any simulated instant, which the deadline
// horizon turns into "no deadline" — uniformly and deterministically.
var Epoch = time.Unix(0, 0).UTC()

// Addr is a simulated endpoint address, "host<N>:<port>" over the fabric's
// host indices. It implements net.Addr.
type Addr struct {
	Node int
	Port uint16
}

// Network implements net.Addr.
func (a Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return "host" + strconv.Itoa(a.Node) + ":" + strconv.Itoa(int(a.Port)) }

// ParseAddr parses "host<N>:<port>" into an Addr.
func ParseAddr(s string) (Addr, error) {
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		return Addr{}, fmt.Errorf("simnet: address %q is not host:port", s)
	}
	num, ok := strings.CutPrefix(host, "host")
	if !ok {
		return Addr{}, fmt.Errorf("simnet: address %q: host must be host<N>", s)
	}
	node, err := strconv.Atoi(num)
	if err != nil || node < 0 {
		return Addr{}, fmt.Errorf("simnet: address %q: bad host index", s)
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil || p == 0 {
		return Addr{}, fmt.Errorf("simnet: address %q: bad port", s)
	}
	return Addr{Node: node, Port: uint16(p)}, nil
}

// Config wires a Net to the cluster that owns the stacks.
type Config struct {
	// Stacks are the per-host TCP stacks, indexed by host.
	Stacks []*tcp.Stack
	// Group is the engine group driving the run; control events execute on
	// Group.Ctrl().
	Group *sim.Group
	// Schedule registers fn as a globally-serialized control event at
	// absolute time at, on behalf of host node. The cluster lowers this to
	// its ScheduleControl seam (shard-safe control registration).
	Schedule func(node int, at units.Time, fn func())
	// Lag is the delay between a shard-context observation and the control
	// event that folds it in — the cluster's ControlLag, so façade hops obey
	// the same discipline as hybrid promotion and congestion notifications.
	Lag units.Duration
}

// Net exposes the simulated fabric behind stdlib-shaped Dial/Listen. One Net
// serves every host in the cluster: Listen picks its host from the address,
// DialContext from WithSource on the request context (host 0 by default).
type Net struct {
	stacks []*tcp.Stack
	group  *sim.Group
	ctrl   *sim.Engine
	sched  func(node int, at units.Time, fn func())
	lag    units.Duration
	gate   *gate

	// Control-context state.
	nextID    uint64
	conns     []*Conn
	listeners []*Listener
	pending   map[packet.Addr]*Conn // dialing conns by ephemeral local addr
	sleepers  map[*op]bool
	nodeOf    map[packet.NodeID]int
}

// New builds a Net over the cluster's stacks. The zero instant is the
// control engine's current time.
func New(cfg Config) *Net {
	n := &Net{
		stacks:   cfg.Stacks,
		group:    cfg.Group,
		ctrl:     cfg.Group.Ctrl(),
		sched:    cfg.Schedule,
		lag:      cfg.Lag,
		gate:     newGate(),
		pending:  make(map[packet.Addr]*Conn),
		sleepers: make(map[*op]bool),
		nodeOf:   make(map[packet.NodeID]int),
	}
	for i, st := range cfg.Stacks {
		n.nodeOf[st.Host().ID()] = i
	}
	return n
}

type srcCtxKey struct{}

// WithSource selects the dialing host for DialContext calls carrying the
// returned context. net/http propagates the request context into its
// transport's DialContext, so an unmodified http.Client dials from the host
// its request context names.
func WithSource(ctx context.Context, node int) context.Context {
	return context.WithValue(ctx, srcCtxKey{}, node)
}

// DialContext opens a simulated TCP connection to address ("host<N>:<port>")
// from the host named by WithSource on ctx (host 0 otherwise). It blocks in
// virtual time until the handshake completes and is shaped to drop into
// http.Transport.DialContext. Cancellation is honored only before the dial
// is published; a parked dial completes or fails in virtual time.
func (n *Net) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if !strings.HasPrefix(network, "tcp") && network != "sim" {
		return nil, fmt.Errorf("simnet: unsupported network %q", network)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	node := 0
	if v := ctx.Value(srcCtxKey{}); v != nil {
		node = v.(int)
	}
	o := &op{kind: opDial, node: node, dst: address}
	n.gate.do(o)
	if o.err != nil {
		return nil, o.err
	}
	return o.newConn, nil
}

// Listen opens a listener on address ("host<N>:<port>"; the host index picks
// the node). Like every blocking façade call it is a tenant rendezvous —
// call it from a tenant goroutine (Net.Go), not from a raw control event.
func (n *Net) Listen(network, address string) (net.Listener, error) {
	if !strings.HasPrefix(network, "tcp") && network != "sim" {
		return nil, fmt.Errorf("simnet: unsupported network %q", network)
	}
	o := &op{kind: opListen, dst: address}
	n.gate.do(o)
	if o.err != nil {
		return nil, o.err
	}
	return o.newLis, nil
}

// Go runs fn on a tenant goroutine. It is the sanctioned way to start tenant
// code: the gate accounts for the spawn, so a settle in progress restarts
// and the new goroutine gets its scheduler turns before the engine advances.
// The virtual clock is published first (see syncClock). Called from a tenant,
// that rewrites the value the tenant already sees: tenants run only while
// the engine is parked in a pump.
func (n *Net) Go(fn func()) {
	n.syncClock()
	n.gate.spawn(fn)
}

// Sleep parks the calling tenant goroutine for d of virtual time. It returns
// early with net.ErrClosed inside the error-free façade only after Shutdown.
func (n *Net) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	o := &op{kind: opSleep, at: units.Time(d)}
	n.gate.do(o)
}

// Now is the tenant-visible clock: Epoch plus the virtual time of the last
// control pump. Tenant goroutines only run while the engine is parked inside
// a pump, so the value is stable — and deterministic — whenever tenant code
// can observe it.
func (n *Net) Now() time.Time {
	return Epoch.Add(time.Duration(n.gate.vnow.Load()))
}

// Settle drains and processes pending tenant operations. Control context
// only: call it at the end of any setup event that spawned tenant goroutines
// (Net.Go) so their first operations are processed before the event returns.
func (n *Net) Settle() { n.pump() }

// Run drives the group's event loop like Group.RunLoop, rescuing the one
// gap the façade's event-driven pumps leave: a tenant that published an
// operation after the last control event settled. Harnesses should use it
// in place of RunLoop whenever a Net is wired in.
func (n *Net) Run(done func() bool, deadline units.Time) sim.RunOutcome {
	for {
		out := n.group.RunLoop(done, deadline)
		if out != sim.RunDeadlock || !n.gate.parked() {
			return out
		}
		n.ctrl.Schedule(n.ctrl.Now(), func() { n.pump() })
	}
}

// Shutdown closes the gate after a run: every parked or future tenant
// operation fails with net.ErrClosed, so tenant goroutines (including
// net/http internals blocked on façade reads) unwind promptly. Call it once
// the run loop has returned; it must not race an active run.
func (n *Net) Shutdown() {
	n.gate.shutdown()
	for _, o := range n.gate.drain() {
		o.err = net.ErrClosed
		n.gate.wake(o)
	}
	for _, l := range n.listeners {
		for _, o := range l.accepts {
			o.err = net.ErrClosed
			n.gate.wake(o)
		}
		l.accepts = nil
		l.closed = true
	}
	for _, c := range n.conns {
		c.closed = true
		n.failParked(c, net.ErrClosed)
	}
	for o := range n.sleepers {
		delete(n.sleepers, o)
		o.err = net.ErrClosed
		n.gate.wake(o)
	}
}

// ---- Control-side machinery ----

// pump is the rendezvous driver: wait for the tenant world to settle, drain
// the published operations in canonical order, process them, and repeat
// until a settle finds nothing new. Control context only.
func (n *Net) pump() {
	n.syncClock()
	for {
		n.gate.quiesce()
		reqs := n.gate.drain()
		if len(reqs) == 0 {
			return
		}
		for _, o := range reqs {
			n.process(o)
		}
	}
}

// syncClock publishes the control engine's time as the tenant-visible
// clock. Every control event that can wake or start a tenant calls it
// first: that tenant may run at once on another P and read Now, or wake
// another tenant that does, before the event reaches its pump.
func (n *Net) syncClock() { n.gate.vnow.Store(int64(n.ctrl.Now())) }

// hop folds a conn's shard-context observations into its control-side
// stream state, completes whatever parked operations became serviceable,
// and pumps. It runs as a control event at observation time plus Lag.
func (n *Net) hop(c *Conn) {
	n.syncClock()
	c.hopPending = false
	if c.sConnected && !c.established {
		c.established = true
		if !c.active && c.peer == nil {
			n.pairAccepted(c)
		}
	}
	if c.in != nil && c.sDelivered > c.in.delivered {
		c.in.delivered = c.sDelivered
	}
	if c.sEOF && c.in != nil {
		c.in.eof = true
	}
	if c.sErr != nil && c.failed == nil && !c.closed {
		c.failed = c.sErr
	}
	n.advance(c)
	if p := c.peer; p != nil {
		n.advance(p)
	}
	n.pump()
}

// pairAccepted wires a passively-opened conn to its dialing peer: shared
// streams, addresses, canonical id, and the listener's accept queue. Control
// context, at the passive side's establishment hop.
func (n *Net) pairAccepted(c *Conn) {
	peer := n.pending[c.tc.RemoteAddr()]
	if peer == nil || c.lis == nil {
		// The dialer vanished (shutdown) — nothing to pair with.
		return
	}
	delete(n.pending, c.tc.RemoteAddr())
	n.nextID++
	c.id = n.nextID
	c.in, c.out = peer.out, peer.in
	c.peer, peer.peer = peer, c
	c.laddr = n.addrOf(c.tc.LocalAddr())
	c.raddr = n.addrOf(c.tc.RemoteAddr())
	n.conns = append(n.conns, c)

	l := c.lis
	if l.closed {
		c.closed = true
		c.tc.Close()
		return
	}
	if len(l.accepts) > 0 {
		o := l.accepts[0]
		l.accepts = l.accepts[1:]
		o.newConn = c
		n.gate.wake(o)
		return
	}
	l.queue = append(l.queue, c)
}

// advance completes a conn's parked operations against its current stream
// state: the dialer once established, the reader once bytes or EOF arrived,
// the writer once the peer's deliveries reopened the window.
func (n *Net) advance(c *Conn) {
	if c.failed != nil {
		n.failParked(c, c.failed)
		return
	}
	if d := c.dialer; d != nil && c.established {
		c.dialer = nil
		d.newConn = c
		n.gate.wake(d)
	}
	if r := c.reader; r != nil && c.in != nil {
		if c.in.readable() > 0 {
			r.n = n.consume(c, r.buf)
			c.reader = nil
			n.gate.wake(r)
		} else if c.in.eof {
			c.reader = nil
			r.err = io.EOF
			n.gate.wake(r)
		}
	}
	if w := c.writer; w != nil {
		n.pushWrite(c, w)
	}
}

// failParked fails every parked operation on c with err.
func (n *Net) failParked(c *Conn, err error) {
	for _, slot := range []**op{&c.dialer, &c.reader, &c.writer} {
		if o := *slot; o != nil {
			*slot = nil
			o.err = err // partial writes surface their progress in o.n
			n.gate.wake(o)
		}
	}
}

// consume moves readable bytes from c.in to buf, returning the count.
func (n *Net) consume(c *Conn, buf []byte) int {
	s := c.in
	nc := int(s.readable())
	if nc > len(buf) {
		nc = len(buf)
	}
	copy(buf, s.buf[:nc])
	s.buf = s.buf[nc:]
	s.consumed += int64(nc)
	if len(s.buf) == 0 {
		s.buf = nil
	}
	return nc
}

// pushWrite moves as many of o's remaining bytes as the window allows into
// c.out and the TCP sender, completing o when every byte is accepted.
func (n *Net) pushWrite(c *Conn, o *op) {
	s := c.out
	take := int(winCap - (s.written - s.delivered))
	if rem := len(o.buf) - o.n; take > rem {
		take = rem
	}
	if take > 0 {
		s.buf = append(s.buf, o.buf[o.n:o.n+take]...)
		s.written += int64(take)
		c.tc.Send(take)
		o.n += take
	}
	if o.n == len(o.buf) {
		c.writer = nil
		n.gate.wake(o)
	} else {
		c.writer = o
	}
}

// process applies one drained tenant operation. Control context only.
func (n *Net) process(o *op) {
	switch o.kind {
	case opListen:
		n.processListen(o)
	case opAccept:
		n.processAccept(o)
	case opDial:
		n.processDial(o)
	case opRead:
		n.processRead(o)
	case opWrite:
		n.processWrite(o)
	case opClose:
		n.processClose(o)
	case opDeadline:
		n.processDeadline(o)
	case opSleep:
		n.processSleep(o)
	}
}

func (n *Net) processListen(o *op) {
	a, err := ParseAddr(o.dst)
	if err != nil {
		o.err = err
		n.gate.wake(o)
		return
	}
	if a.Node >= len(n.stacks) {
		o.err = fmt.Errorf("simnet: listen %v: no such host", a)
		n.gate.wake(o)
		return
	}
	l := &Listener{n: n, node: a.Node, addr: a}
	n.nextID++
	l.id = n.nextID
	l.tl = n.stacks[a.Node].Listen(a.Port, func(tc *tcp.Conn) {
		// Shard context, at SYN arrival: build the passive shell and let its
		// establishment hop pair and queue it in control context.
		c := &Conn{n: n, node: l.node, tc: tc, lis: l}
		c.install()
	})
	n.listeners = append(n.listeners, l)
	o.newLis = l
	n.gate.wake(o)
}

func (n *Net) processAccept(o *op) {
	l := o.lis
	if l.closed {
		o.err = net.ErrClosed
		n.gate.wake(o)
		return
	}
	if len(l.queue) > 0 {
		c := l.queue[0]
		l.queue = l.queue[1:]
		o.newConn = c
		n.gate.wake(o)
		return
	}
	l.accepts = append(l.accepts, o)
}

func (n *Net) processDial(o *op) {
	a, err := ParseAddr(o.dst)
	if err != nil {
		o.err = err
		n.gate.wake(o)
		return
	}
	if o.node < 0 || o.node >= len(n.stacks) || a.Node >= len(n.stacks) {
		o.err = fmt.Errorf("simnet: dial %s from host%d: no such host", o.dst, o.node)
		n.gate.wake(o)
		return
	}
	st := n.stacks[o.node]
	tc := st.Dial(packet.Addr{Node: n.stacks[a.Node].Host().ID(), Port: a.Port})
	n.nextID++
	c := &Conn{
		id:     n.nextID,
		n:      n,
		node:   o.node,
		active: true,
		tc:     tc,
		in:     &stream{},
		out:    &stream{},
	}
	c.laddr = n.addrOf(tc.LocalAddr())
	c.raddr = a
	c.install()
	c.dialer = o
	n.pending[tc.LocalAddr()] = c
	n.conns = append(n.conns, c)
}

func (n *Net) processRead(o *op) {
	c := o.conn
	switch {
	case c.closed:
		o.err = net.ErrClosed
	case c.failed != nil:
		o.err = c.failed
	case c.rdDeadline != 0 && c.rdDeadline <= n.ctrl.Now():
		o.err = os.ErrDeadlineExceeded
	case c.in.readable() > 0:
		o.n = n.consume(c, o.buf)
	case c.in.eof:
		o.err = io.EOF
	case c.reader != nil:
		o.err = errors.New("simnet: concurrent Read on one Conn")
	default:
		c.reader = o
		return
	}
	n.gate.wake(o)
}

func (n *Net) processWrite(o *op) {
	c := o.conn
	switch {
	case c.closed:
		o.err = net.ErrClosed
	case c.failed != nil:
		o.err = c.failed
	case c.wrDeadline != 0 && c.wrDeadline <= n.ctrl.Now():
		o.err = os.ErrDeadlineExceeded
	case c.writer != nil:
		o.err = errors.New("simnet: concurrent Write on one Conn")
	default:
		n.pushWrite(c, o)
		return
	}
	n.gate.wake(o)
}

func (n *Net) processClose(o *op) {
	if l := o.lis; l != nil {
		if l.closed {
			o.err = net.ErrClosed
		} else {
			l.closed = true
			n.stacks[l.node].CloseListener(l.tl)
			for _, a := range l.accepts {
				a.err = net.ErrClosed
				n.gate.wake(a)
			}
			l.accepts = nil
			for _, c := range l.queue {
				c.closed = true
				c.tc.Close()
			}
			l.queue = nil
		}
		n.gate.wake(o)
		return
	}
	c := o.conn
	if c.closed {
		o.err = net.ErrClosed
		n.gate.wake(o)
		return
	}
	c.closed = true
	n.clearTimer(&c.rdTimer, &c.rdTimerSet)
	n.clearTimer(&c.wrTimer, &c.wrTimerSet)
	if c.failed == nil {
		c.tc.Close()
	}
	n.failParked(c, net.ErrClosed)
	n.gate.wake(o)
}

func (n *Net) processDeadline(o *op) {
	c := o.conn
	if c.closed {
		o.err = net.ErrClosed
		n.gate.wake(o)
		return
	}
	now := n.ctrl.Now()
	if o.dmap&deadlineRead != 0 {
		c.rdDeadline = n.armDeadline(c, o, now, &c.rdTimer, &c.rdTimerSet, deadlineRead)
		if r := c.reader; r != nil && c.rdDeadline != 0 && c.rdDeadline <= now {
			c.reader = nil
			r.err = os.ErrDeadlineExceeded
			n.gate.wake(r)
		}
	}
	if o.dmap&deadlineWrite != 0 {
		c.wrDeadline = n.armDeadline(c, o, now, &c.wrTimer, &c.wrTimerSet, deadlineWrite)
		if w := c.writer; w != nil && c.wrDeadline != 0 && c.wrDeadline <= now {
			c.writer = nil
			w.err = os.ErrDeadlineExceeded
			n.gate.wake(w)
		}
	}
	n.gate.wake(o)
}

// armDeadline cancels the old timer and installs the new deadline, arming a
// control-engine timer event only for instants inside the horizon: a
// wall-derived deadline (decades out) is uniformly inert, a past deadline
// fails operations immediately without a timer.
func (n *Net) armDeadline(c *Conn, o *op, now units.Time, timer *sim.Event, set *bool, which deadlineTarget) units.Time {
	n.clearTimer(timer, set)
	if !o.set {
		return 0
	}
	at := o.at
	if at > now+deadlineHorizon {
		return 0
	}
	if at > now {
		*timer = n.ctrl.Schedule(at, func() {
			*set = false
			n.expireDeadline(c, at, which)
		})
		*set = true
	}
	return at
}

// expireDeadline is the deadline timer event: if the deadline is still the
// one the timer was armed for, fail the parked operation it governs.
func (n *Net) expireDeadline(c *Conn, at units.Time, which deadlineTarget) {
	if c.closed {
		return
	}
	n.syncClock()
	woke := false
	if which == deadlineRead && c.rdDeadline == at {
		if r := c.reader; r != nil {
			c.reader = nil
			r.err = os.ErrDeadlineExceeded
			n.gate.wake(r)
			woke = true
		}
	}
	if which == deadlineWrite && c.wrDeadline == at {
		if w := c.writer; w != nil {
			c.writer = nil
			w.err = os.ErrDeadlineExceeded
			n.gate.wake(w)
			woke = true
		}
	}
	if woke {
		n.pump()
	}
}

func (n *Net) clearTimer(timer *sim.Event, set *bool) {
	if *set {
		n.ctrl.Cancel(*timer)
		*set = false
	}
}

func (n *Net) processSleep(o *op) {
	wakeAt := n.ctrl.Now() + o.at
	n.sleepers[o] = true
	n.ctrl.Schedule(wakeAt, func() {
		if !n.sleepers[o] {
			return
		}
		delete(n.sleepers, o)
		n.syncClock()
		n.gate.wake(o)
		n.pump()
	})
}

// addrOf renders a fabric address as the façade's host<N>:<port> form.
func (n *Net) addrOf(pa packet.Addr) Addr {
	return Addr{Node: n.nodeOf[pa.Node], Port: pa.Port}
}
