package metrics

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/units"
)

// delivery is one buffered PacketDelivered observation. The (at, lineage)
// pair is the delivering event's ordering key on its shard engine, which is
// what lets the replay merge observations from all shards back into the
// order a single serial engine would have produced them in.
type delivery struct {
	at      units.Time
	lin     sim.Lineage
	tok     sim.Token
	sentAt  units.Time
	payload int
	dst     packet.NodeID
}

// ShardView is the face of a Collector that observes one shard: the netsim
// observer through which the collector sees the fabric.
//
// A serial run's one view (View) writes the collector's own counters and
// applies each delivery as it happens. In a sharded run each shard has its
// own view (ShardView). Verdict counts and tier occupancy are order-free
// (integer-additive, or confined to one port and therefore one shard), so
// that view applies them locally without synchronization. Delivery
// observations are NOT order-free — they feed reservoir sampling and float
// accumulation on the shared collector — so it only buffers them; the group
// coordinator replays all shards' buffers at each barrier via
// Collector.ReplayDeliveries.
type ShardView struct {
	c *Collector
	// eng is the shard's engine; nil for a serial run's view, which applies
	// deliveries at once instead of buffering them.
	eng *sim.Engine
	// counts is where verdicts are counted: the collector's own in a serial
	// run, local otherwise (folded in by MergeShard after the run).
	counts *verdicts
	local  verdicts

	deliveries []delivery
}

// View creates the observer of a serial run: it counts straight into the
// collector and applies deliveries in the order they happen.
func (c *Collector) View() *ShardView { return &ShardView{c: c, counts: &c.verdicts} }

// ShardView creates the observer for one shard of a sharded run, whose
// events run on eng.
func (c *Collector) ShardView(eng *sim.Engine) *ShardView {
	v := &ShardView{c: c, eng: eng}
	v.counts = &v.local
	return v
}

// PacketEnqueued implements netsim.Observer on the shard.
func (v *ShardView) PacketEnqueued(now units.Time, port *netsim.Port, p *packet.Packet, verdict qdisc.Verdict) {
	v.counts.add(p.Kind(), verdict)
	if v.c.watchTiers {
		// tierPortOcc is registered before the run and read-only during it;
		// each tracker belongs to one port and hence one shard, so the
		// concurrent map reads and single-shard tracker writes are safe.
		if w, ok := v.c.tierPortOcc[port]; ok {
			w.Observe(now.Seconds(), float64(port.Queue().Len()))
		}
	}
}

// PacketDelivered implements netsim.Observer on the shard: a serial run's
// view applies the delivery, a shard's view buffers it for the replay.
func (v *ShardView) PacketDelivered(now units.Time, p *packet.Packet) {
	if v.eng == nil {
		v.c.deliverAt(now, p.SentAt, p.Payload, p.Dst.Node)
		return
	}
	v.deliveries = append(v.deliveries, delivery{
		at:      now,
		lin:     v.eng.CurrentLineage(),
		tok:     v.eng.CurrentToken(),
		sentAt:  p.SentAt,
		payload: p.Payload,
		dst:     p.Dst.Node,
	})
}

// ReplayDeliveries merges every view's buffered deliveries into the
// collector in (at, lineage, token, shard) order — each shard's buffer is
// already sorted because its engine executes in key order — and resets the
// buffers. Called by the group coordinator at barriers, with all shard
// workers parked.
func (c *Collector) ReplayDeliveries(views []*ShardView) {
	if cap(c.replayIdx) < len(views) {
		c.replayIdx = make([]int, len(views))
	}
	idx := c.replayIdx[:len(views)]
	clear(idx)
	for {
		best := -1
		for i, v := range views {
			if idx[i] >= len(v.deliveries) {
				continue
			}
			d := &v.deliveries[idx[i]]
			if best < 0 {
				best = i
				continue
			}
			b := &views[best].deliveries[idx[best]]
			if d.at != b.at {
				if d.at < b.at {
					best = i
				}
				continue
			}
			if o := d.lin.Compare(&b.lin); o < 0 || o == 0 && d.tok.Less(b.tok) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		d := &views[best].deliveries[idx[best]]
		c.deliverAt(d.at, d.sentAt, d.payload, d.dst)
		idx[best]++
	}
	for _, v := range views {
		v.deliveries = v.deliveries[:0]
	}
}

// MergeShard folds a shard view's verdict counts into the collector and
// zeroes them, so merging after every drive call is safe. A serial run's
// view counts into the collector directly and has nothing to fold.
func (c *Collector) MergeShard(v *ShardView) {
	for i := range v.local.Enqueued {
		c.Enqueued[i] += v.local.Enqueued[i]
		c.Marked[i] += v.local.Marked[i]
		c.EarlyDropped[i] += v.local.EarlyDropped[i]
		c.OverflowDropped[i] += v.local.OverflowDropped[i]
	}
	v.local = verdicts{}
}
