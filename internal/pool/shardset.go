package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardSet is the persistent worker crew behind the sharded event loop: the
// coordinator runs shard 0 itself and one pinned goroutine runs each other
// shard, released in lockstep rounds. The conservative-lookahead loop runs
// one round per time window, and windows are microseconds of simulated time
// — hundreds of thousands of rounds per run — so the release/join cycle must
// cost well under a mutex+condvar handoff. Workers therefore spin on an
// atomic epoch instead of parking on a sync primitive. Each wait re-reads
// its atomic up to spinLoads times before it yields to the Go scheduler, and
// then spins again: the yield keeps GOMAXPROCS(1), oversubscribed hosts and
// the race detector making progress, and the bounded spin keeps the waits
// that end within it out of the scheduler. Running shard 0 on
// the coordinator keeps one goroutine per shard busy during a round instead
// of adding a spinning coordinator on top.
//
// All cross-worker data handoff rides on the epoch/join atomics: writes made
// by the coordinator before Round happen-before the workers' fn, and writes
// made inside fn happen-before Round's return.
type ShardSet struct {
	n       int
	fn      func(shard int)
	epoch   atomic.Uint64
	joined  atomic.Int64
	closing atomic.Bool
	exited  sync.WaitGroup
}

// NewShardSet prepares n ≥ 1 shards that each run fn(shard) once per Round,
// starting n-1 worker goroutines. fn must confine itself to shard-owned
// state plus the single-writer handoff lanes the coordinator drains between
// rounds.
func NewShardSet(n int, fn func(shard int)) *ShardSet {
	s := &ShardSet{n: n, fn: fn}
	s.exited.Add(n - 1)
	for i := 1; i < n; i++ {
		go s.worker(i)
	}
	return s
}

// spinLoads is how many times a barrier wait re-reads its atomic before it
// yields: about 150 ns of loads that hit the cache. On a 2-vCPU host the 2-shard hotspot cell
// ran slowest, in wall and CPU time, with no spin, and within a few percent
// of its best from 256 to 16,384 loads; with more shards than Ps, 4,096
// loads ran 1.2–2.3× as long as 256 (DESIGN.md §2.6 has the table).
const spinLoads = 256

// worker spins for the next epoch, runs the shard body, and reports in.
func (s *ShardSet) worker(shard int) {
	defer s.exited.Done()
	seen := uint64(0)
	for {
		e := s.epoch.Load()
		for i := 0; e == seen && i < spinLoads; i++ {
			e = s.epoch.Load()
		}
		if e == seen {
			if s.closing.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		seen = e
		s.fn(shard)
		s.joined.Add(1)
	}
}

// Round runs fn once for every shard, shard 0 on the calling goroutine, and
// returns when all have finished. It must only be called from the single
// coordinator goroutine.
func (s *ShardSet) Round() {
	s.joined.Store(0)
	s.epoch.Add(1)
	s.fn(0)
	want := int64(s.n - 1)
	for {
		j := s.joined.Load()
		for i := 0; j != want && i < spinLoads; i++ {
			j = s.joined.Load()
		}
		if j == want {
			return
		}
		runtime.Gosched()
	}
}

// Close stops the workers and returns once they have exited. No Round may
// be issued afterwards.
func (s *ShardSet) Close() {
	s.closing.Store(true)
	s.exited.Wait()
}
