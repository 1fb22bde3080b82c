package packet

// Pool is a free list of Packets. The simulation's steady state churns
// through one packet per segment/ACK; recycling them through a per-network
// pool removes that allocation (and the GC pressure behind it) entirely.
//
// A Pool is single-threaded by design, like everything else inside one
// simulation run: each Network owns its own pool, and separate runs on
// separate goroutines never share one.
type Pool struct {
	free []*Packet

	// Counters for diagnostics and tests.
	news   uint64 // fresh heap allocations
	reuses uint64 // Gets served from the free list
}

// Get returns a zeroed packet, reusing a released one when available. The
// returned packet keeps any SACK slice capacity from its previous life, so
// steady-state ACK construction allocates nothing.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.inPool = false
		pl.reuses++
		return p
	}
	pl.news++
	return &Packet{pooled: true}
}

// Put releases a packet back to the free list. Packets not allocated by a
// Pool (hand-built in tests) and nil are ignored; releasing the same packet
// twice panics — it would alias one packet into two future lives.
func (pl *Pool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if p.inPool {
		panic("packet: double release into pool")
	}
	sack := p.SACK[:0]
	*p = Packet{pooled: true, inPool: true}
	p.SACK = sack
	pl.free = append(pl.free, p)
}

// MoveTo moves up to n free packets from pl's free list to dst's and
// returns how many it moved. A free packet carries nothing but its SACK
// capacity, so which pool holds it changes no result.
func (pl *Pool) MoveTo(dst *Pool, n int) int {
	n = min(n, len(pl.free))
	if n <= 0 {
		return 0
	}
	rest := len(pl.free) - n
	dst.free = append(dst.free, pl.free[rest:]...)
	clear(pl.free[rest:])
	pl.free = pl.free[:rest]
	return n
}

// Stats returns (fresh allocations, free-list reuses).
func (pl *Pool) Stats() (news, reuses uint64) { return pl.news, pl.reuses }

// Len returns the current free-list depth.
func (pl *Pool) Len() int { return len(pl.free) }
