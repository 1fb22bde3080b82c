package metrics

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/stats"
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

// ShardView is the per-shard face of a Collector in a sharded run. Counter
// updates and queue-occupancy observations are order-free (integer-additive,
// or confined to one port and therefore one shard), so the view applies them
// locally without synchronization. Delivery observations are NOT order-free
// — they feed reservoir sampling and float accumulation on the shared
// collector — so the view only buffers them; the group coordinator replays
// all shards' buffers at each barrier via Collector.ReplayDeliveries.
//
// With one shard the Collector itself is the observer and none of this
// machinery exists on the hot path.
type ShardView struct {
	c   *Collector
	eng *sim.Engine

	// Shard-local verdict counters, folded into the collector by MergeShard
	// after the run.
	Enqueued        KindCounts
	Marked          KindCounts
	EarlyDropped    KindCounts
	OverflowDropped KindCounts

	// Shard-local per-port occupancy trackers (WatchQueues). Ports are
	// partitioned across shards, so the per-shard maps have disjoint key
	// sets and merge losslessly.
	occupancy map[*netsim.Port]*stats.TimeWeighted

	deliveries []delivery
}

// ShardView creates the observer for one shard, whose events run on eng.
func (c *Collector) ShardView(eng *sim.Engine) *ShardView {
	v := &ShardView{c: c, eng: eng}
	if c.watchQueues {
		v.occupancy = make(map[*netsim.Port]*stats.TimeWeighted)
	}
	return v
}

// PacketEnqueued implements netsim.Observer on the shard.
func (v *ShardView) PacketEnqueued(now units.Time, port *netsim.Port, p *packet.Packet, verdict qdisc.Verdict) {
	k := p.Kind()
	switch verdict {
	case qdisc.Enqueued:
		v.Enqueued.Add(k)
	case qdisc.EnqueuedMarked:
		v.Enqueued.Add(k)
		v.Marked.Add(k)
	case qdisc.DroppedEarly:
		v.EarlyDropped.Add(k)
	case qdisc.DroppedOverflow:
		v.OverflowDropped.Add(k)
	}
	if v.c.watchQueues {
		w := v.occupancy[port]
		if w == nil {
			w = &stats.TimeWeighted{}
			v.occupancy[port] = w
		}
		w.Observe(now.Seconds(), float64(port.Queue().Len()))
	}
	if v.c.watchTiers {
		// tierPortOcc is registered before the run and read-only during it;
		// each tracker belongs to one port and hence one shard, so the
		// concurrent map reads and single-shard tracker writes are safe.
		if w, ok := v.c.tierPortOcc[port]; ok {
			w.Observe(now.Seconds(), float64(port.Queue().Len()))
		}
	}
}

// PacketDelivered implements netsim.Observer on the shard: buffer only.
func (v *ShardView) PacketDelivered(now units.Time, p *packet.Packet) {
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
// collector in (at, lineage, shard) order — each shard's buffer is already
// sorted because its engine executes in key order — and resets the buffers.
// Called by the group coordinator at barriers, with all shard workers
// parked.
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
			if d.at < b.at || (d.at == b.at && (d.lin != b.lin && d.lin.Less(b.lin) ||
				d.lin == b.lin && d.tok.Less(b.tok))) {
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

// MergeShard folds a view's order-free aggregates into the collector and
// zeroes the view's counters, so merging after every drive call is safe.
func (c *Collector) MergeShard(v *ShardView) {
	for i := range v.Enqueued {
		c.Enqueued[i] += v.Enqueued[i]
		c.Marked[i] += v.Marked[i]
		c.EarlyDropped[i] += v.EarlyDropped[i]
		c.OverflowDropped[i] += v.OverflowDropped[i]
	}
	v.Enqueued, v.Marked, v.EarlyDropped, v.OverflowDropped = KindCounts{}, KindCounts{}, KindCounts{}, KindCounts{}
	for port, w := range v.occupancy {
		c.occupancy[port] = w
	}
}
