package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapred"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

func leafSpineSpec() cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Nodes = 16
	spec.Racks = 4
	spec.Spines = 2
	return spec
}

// runDigest captures every result surface a shard count could perturb.
type runDigest string

// digestRun runs the job and returns its digest and the number of fresh
// packets the run's pools minted.
func digestRun(t *testing.T, spec cluster.Spec, jobCfg mapred.JobConfig) (runDigest, uint64) {
	t.Helper()
	c := cluster.New(spec)
	job := c.RunJob(jobCfg)
	if !job.Done() {
		t.Fatalf("job incomplete at %d shards", spec.Shards)
	}
	lo, hi := job.ShuffleWindow()
	fresh, _ := c.Topo.Net.PoolStats()
	return runDigest(fmt.Sprintf(
		"runtime=%d shuffle=[%d,%d] delivered=%d latency=%x/%x p99=%x enq=%v marked=%v drops=%v/%v tcp=%+v events=%d now=%d",
		job.Runtime(), lo, hi,
		c.Metrics.DeliveredPackets,
		c.Metrics.Latency.Mean(), c.Metrics.DataLatency.Mean(), c.Metrics.P99Latency(),
		c.Metrics.Enqueued, c.Metrics.Marked, c.Metrics.EarlyDropped, c.Metrics.OverflowDropped,
		*c.TCP, c.Events(), c.Now(),
	)), fresh
}

// TestShardedBitIdentical is the tentpole contract: the sharded event loop
// must reproduce the serial engine's results exactly, at any shard count.
// It also bounds the packets the sharded pools mint: a packet is minted from
// its sender's shard pool and released into its receiver's, and the barrier
// balances the free lists, so a sharded run may mint at most one batch per
// shard more than the serial run.
func TestShardedBitIdentical(t *testing.T) {
	jobCfg := mapred.TerasortConfig(64*units.MiB, 8)
	jobCfg.BlockSize = 16 * units.MiB

	spec := leafSpineSpec()
	spec.Shards = 1
	want, serialFresh := digestRun(t, spec, jobCfg)

	for _, shards := range []int{2, 4} {
		spec := leafSpineSpec()
		spec.Shards = shards
		got, fresh := digestRun(t, spec, jobCfg)
		if got != want {
			t.Errorf("%d shards diverged from serial:\n serial: %s\n got:    %s", shards, want, got)
		}
		if limit := serialFresh + uint64(shards*netsim.PoolBatch); fresh > limit {
			t.Errorf("%d shards minted %d fresh packets, over the serial run's %d plus %d per shard",
				shards, fresh, serialFresh, netsim.PoolBatch)
		}
	}
}

// TestShardedDeadlineBitIdentical cuts one job mid-run at deadlines,
// driven as RunJob drives it, and checks that every shard count stops at the
// event a serial run stops at: an event at the deadline runs, none after it.
// Outcome, event count, clock, fabric counters and TCP stats must match.
func TestShardedDeadlineBitIdentical(t *testing.T) {
	jobCfg := mapred.TerasortConfig(64*units.MiB, 8)
	jobCfg.BlockSize = 16 * units.MiB
	ms := units.Time(units.Millisecond)
	for _, deadline := range []units.Time{155 * ms, 160*ms + 3, 170*ms + 7} {
		var want string
		for _, shards := range []int{1, 2, 4} {
			spec := leafSpineSpec()
			spec.Shards = shards
			c := cluster.New(spec)
			job := mapred.NewJob(c.Engine, jobCfg, c.Workers)
			if shards > 1 {
				job.SetControlPlane(c)
			}
			c.Engine.Schedule(ms, job.Start)
			if out := c.Run(job.Done, deadline); out != sim.RunTimeout {
				t.Fatalf("deadline %v, %d shards: outcome %v, want RunTimeout", deadline, shards, out)
			}
			got := fmt.Sprintf("events=%d now=%d delivered=%d enq=%v marked=%v drops=%v/%v tcp=%+v",
				c.Events(), c.Now(), c.Metrics.DeliveredPackets, c.Metrics.Enqueued,
				c.Metrics.Marked, c.Metrics.EarlyDropped, c.Metrics.OverflowDropped, *c.TCP)
			if c.Now() > deadline {
				t.Errorf("deadline %v, %d shards: clock %v past the deadline", deadline, shards, c.Now())
			}
			if shards == 1 {
				want = got
			} else if got != want {
				t.Errorf("deadline %v: %d shards diverged from serial:\n serial: %s\n got:    %s", deadline, shards, want, got)
			}
		}
	}
}

// TestLookaheadSafety is the conservative-lookahead property test: every
// cross-shard handoff drained from the inbox lanes must carry a timestamp at
// or beyond the destination shard's clock — otherwise the horizon math
// admitted an event into a window the destination has already stepped past,
// and causality (hence bit-identity) is lost. The netsim drain panics on a
// violation; the hook additionally proves the property is exercised, not
// vacuously true, and that the safety margin never dips below zero even at
// the maximum shard count (the tightest windows).
func TestLookaheadSafety(t *testing.T) {
	jobCfg := mapred.TerasortConfig(64*units.MiB, 8)
	jobCfg.BlockSize = 16 * units.MiB

	for _, shards := range []int{2, 4} {
		spec := leafSpineSpec()
		spec.Shards = shards
		c := cluster.New(spec)

		var crossings uint64
		minMargin := units.Duration(1<<63 - 1)
		c.Topo.Net.OnCrossShardArrival = func(dst int, at, dstNow units.Time) {
			crossings++
			if m := units.Duration(at - dstNow); m < minMargin {
				minMargin = m
			}
		}
		job := c.RunJob(jobCfg)
		if !job.Done() {
			t.Fatalf("%d shards: job incomplete", shards)
		}
		if crossings == 0 {
			t.Fatalf("%d shards: no cross-shard handoffs observed — the property test is vacuous", shards)
		}
		if minMargin < 0 {
			t.Errorf("%d shards: cross-shard arrival %v before the destination clock", shards, minMargin)
		}
		t.Logf("%d shards: %d cross-shard handoffs, min margin %v (lookahead %v)",
			shards, crossings, minMargin, c.Topo.Lookahead)
	}
}

// TestShardedSelfDeterministic pins the weaker property separately so a
// bit-identity regression can be triaged: if this fails the sharded loop
// itself is nondeterministic (a race or unordered drain); if only
// TestShardedBitIdentical fails the loop is deterministic but diverges from
// the serial order.
func TestShardedSelfDeterministic(t *testing.T) {
	jobCfg := mapred.TerasortConfig(64*units.MiB, 8)
	jobCfg.BlockSize = 16 * units.MiB
	spec := leafSpineSpec()
	spec.Shards = 2
	a, _ := digestRun(t, spec, jobCfg)
	b, _ := digestRun(t, spec, jobCfg)
	if a != b {
		t.Errorf("sharded run not self-deterministic:\n a: %s\n b: %s", a, b)
	}
}
