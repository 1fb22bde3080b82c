package pool_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
)

// TestShardSetRunsEveryShardOncePerRound checks that each Round runs fn
// exactly once for every shard, and that the plain (non-atomic) writes the
// shards make are visible to the coordinator when Round returns. Run it
// under -race: the per-shard slots are ordinary memory, so a missing
// happens-before edge in either direction is a reported race.
func TestShardSetRunsEveryShardOncePerRound(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		const rounds = 200
		runs := make([]int, n)
		out := make([]int, n)
		in := 0
		s := pool.NewShardSet(n, func(shard int) {
			runs[shard]++
			out[shard] = in*n + shard
		})
		for r := 1; r <= rounds; r++ {
			in = r // written by the coordinator before the round
			s.Round()
			for shard := 0; shard < n; shard++ {
				if runs[shard] != r {
					t.Fatalf("n=%d round %d: shard %d ran %d times, want %d", n, r, shard, runs[shard], r)
				}
				if want := r*n + shard; out[shard] != want {
					t.Fatalf("n=%d round %d: shard %d wrote %d, want %d", n, r, shard, out[shard], want)
				}
			}
		}
		s.Close()
	}
}

// TestShardSetProgressesOnOneP runs 1,000 rounds of 4 shards on one P. A
// barrier wait must yield after its bounded spin: one that spins without
// yielding holds the only P until the runtime preempts it, about 10 ms
// later, so every round waits out several preemptions and the rounds take
// tens of seconds. With the yield they take milliseconds, under the race
// detector too, so the bound is generous.
func TestShardSetProgressesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, rounds, bound = 4, 1000, 5 * time.Second
	runs := make([]int, n)
	s := pool.NewShardSet(n, func(shard int) { runs[shard]++ })
	defer s.Close()
	start := time.Now()
	for r := 1; r <= rounds; r++ {
		s.Round()
		if el := time.Since(start); el > bound {
			t.Fatalf("%d of %d rounds took %v on one P, over the %v bound", r, rounds, el, bound)
		}
	}
	for shard, got := range runs {
		if got != rounds {
			t.Errorf("shard %d ran %d times in %d rounds", shard, got, rounds)
		}
	}
	t.Logf("%d rounds of %d shards on one P in %v", rounds, n, time.Since(start))
}

// TestShardSetCloseWaitsForWorkers checks that Close returns only after the
// worker goroutines have exited, so a closed set leaves nothing spinning.
// Each shard records the goroutine that ran it; after Close none of the
// workers may appear in a dump of all goroutines. The test runs on one P: a
// worker's exit then completes before the coordinator it wakes can run
// (with more Ps a dump can still catch the worker's last few instructions
// after it signalled).
func TestShardSetCloseWaitsForWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 2, 4} {
		ids := make([]string, n)
		s := pool.NewShardSet(n, func(shard int) { ids[shard] = goroutineID() })
		s.Round()
		if ids[0] != goroutineID() {
			t.Fatalf("n=%d: shard 0 ran on goroutine %s, want the coordinator", n, ids[0])
		}
		s.Close()
		buf := make([]byte, 1<<20)
		all := string(buf[:runtime.Stack(buf, true)])
		for shard := 1; shard < n; shard++ {
			if strings.Contains(all, "goroutine "+ids[shard]+" [") {
				t.Fatalf("n=%d: worker for shard %d (goroutine %s) still exists after Close", n, shard, ids[shard])
			}
		}
	}
}

// goroutineID returns the calling goroutine's ID from its stack header,
// "goroutine <id> [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
