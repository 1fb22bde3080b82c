package mapred_test

import (
	"testing"

	"repro/internal/mapred"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// rig wires an n-node cluster with workers, returning engine and workers.
func rig(t testing.TB, n int) (*sim.Engine, []*mapred.Worker) {
	t.Helper()
	eng := sim.New()
	cl := topo.Build(eng, topo.Config{
		Nodes:     n,
		LinkRate:  10 * units.Gbps,
		LinkDelay: 5 * units.Microsecond,
		SwitchQueue: func(label string, rate units.Bandwidth) qdisc.Qdisc {
			return qdisc.NewDropTail(1000)
		},
	})
	stats := &tcp.Stats{}
	var workers []*mapred.Worker
	for i, h := range cl.Hosts {
		workers = append(workers, &mapred.Worker{
			Index: i,
			Spec:  mapred.DefaultNodeSpec(),
			Stack: tcp.NewStack(h, tcp.DefaultConfig(tcp.Reno), stats),
		})
	}
	return eng, workers
}

func runJob(t testing.TB, eng *sim.Engine, job *mapred.Job) {
	t.Helper()
	eng.Schedule(units.Time(units.Millisecond), job.Start)
	eng.RunUntil(units.Time(120 * units.Second))
	if !job.Done() {
		t.Fatal("job incomplete at 120 s")
	}
}

func TestTerasortConfigShape(t *testing.T) {
	cfg := mapred.TerasortConfig(1*units.GiB, 32)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.OutputRatio != 1.0 {
		t.Errorf("Terasort output ratio = %g", cfg.OutputRatio)
	}
	if cfg.NumMaps() != 16 {
		t.Errorf("NumMaps = %d, want 16 (1GiB / 64MiB)", cfg.NumMaps())
	}
}

func TestNumMapsRoundsUp(t *testing.T) {
	cfg := mapred.TerasortConfig(100*units.MiB, 4) // 64MiB blocks
	if got := cfg.NumMaps(); got != 2 {
		t.Errorf("NumMaps = %d, want 2", got)
	}
	tiny := mapred.TerasortConfig(1*units.KiB, 1)
	if got := tiny.NumMaps(); got != 1 {
		t.Errorf("NumMaps = %d, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	base := mapred.TerasortConfig(64*units.MiB, 4)
	mut := []func(*mapred.JobConfig){
		func(c *mapred.JobConfig) { c.InputSize = 0 },
		func(c *mapred.JobConfig) { c.BlockSize = 0 },
		func(c *mapred.JobConfig) { c.Reducers = 0 },
		func(c *mapred.JobConfig) { c.OutputRatio = 0 },
		func(c *mapred.JobConfig) { c.ParallelFetches = 0 },
		func(c *mapred.JobConfig) { c.SlowStartAfterMaps = 2 },
	}
	for i, m := range mut {
		cfg := base
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestNodeSpecValidation(t *testing.T) {
	good := mapred.DefaultNodeSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.MapSlots = 0
	if bad.Validate() == nil {
		t.Error("zero map slots validated")
	}
	bad2 := good
	bad2.DiskRead = 0
	if bad2.Validate() == nil {
		t.Error("zero disk validated")
	}
}

func TestJobCompletesAndMovesAllBytes(t *testing.T) {
	eng, workers := rig(t, 4)
	cfg := mapred.TerasortConfig(64*units.MiB, 8)
	cfg.BlockSize = 16 * units.MiB // 4 maps
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)

	if !job.Done() {
		t.Fatal("job not done")
	}
	if job.Runtime() <= 0 {
		t.Error("non-positive runtime")
	}
	// Every reducer fetched from every map; total shuffled = input x ratio.
	want := units.ByteSize(0)
	for _, m := range job.Maps {
		want += m.OutputPerReducer(&cfg) * units.ByteSize(cfg.Reducers)
	}
	if got := job.ShuffledBytes(); got != want {
		t.Errorf("shuffled %d, want %d", got, want)
	}
	for _, r := range job.Reduces {
		if r.Fetched != len(job.Maps) {
			t.Errorf("reducer %d fetched %d/%d", r.ID, r.Fetched, len(job.Maps))
		}
		if r.State != mapred.TaskDone {
			t.Errorf("reducer %d state %v", r.ID, r.State)
		}
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	eng, workers := rig(t, 4)
	cfg := mapred.TerasortConfig(128*units.MiB, 8)
	cfg.BlockSize = 16 * units.MiB // 8 maps over 4 nodes
	job := mapred.NewJob(eng, cfg, workers)
	counts := make(map[int]int)
	for _, m := range job.Maps {
		counts[m.Node]++
	}
	for n := 0; n < 4; n++ {
		if counts[n] != 2 {
			t.Errorf("node %d has %d maps, want 2", n, counts[n])
		}
	}
	rcounts := make(map[int]int)
	for _, r := range job.Reduces {
		rcounts[r.Node]++
	}
	for n := 0; n < 4; n++ {
		if rcounts[n] != 2 {
			t.Errorf("node %d has %d reducers, want 2", n, rcounts[n])
		}
	}
}

func TestMapWavesRespectSlots(t *testing.T) {
	// 8 maps on 2 nodes with 2 slots each: two waves; last map cannot
	// start before the first finishes.
	eng, workers := rig(t, 2)
	cfg := mapred.TerasortConfig(128*units.MiB, 2)
	cfg.BlockSize = 16 * units.MiB // 8 maps
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)

	var firstEnd, lastStart units.Time
	for _, m := range job.Maps {
		if firstEnd == 0 || m.End < firstEnd {
			firstEnd = m.End
		}
		if m.Start > lastStart {
			lastStart = m.Start
		}
	}
	if lastStart < firstEnd {
		t.Errorf("last map started %v before any finished (%v): slot limit ignored", lastStart, firstEnd)
	}
}

func TestReduceWavesBeyondSlots(t *testing.T) {
	// 8 reducers on 2 nodes x 2 slots: the second wave must wait.
	eng, workers := rig(t, 2)
	cfg := mapred.TerasortConfig(32*units.MiB, 8)
	cfg.BlockSize = 16 * units.MiB
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)

	done := 0
	for _, r := range job.Reduces {
		if r.State == mapred.TaskDone {
			done++
		}
	}
	if done != 8 {
		t.Fatalf("%d/8 reducers finished", done)
	}
	// At least one reducer's shuffle must start after another's reduce
	// completed (wave 2).
	var earliestEnd units.Time = 1 << 62
	for _, r := range job.Reduces {
		if r.End < earliestEnd {
			earliestEnd = r.End
		}
	}
	second := false
	for _, r := range job.Reduces {
		if r.Start >= earliestEnd {
			second = true
		}
	}
	if !second {
		t.Error("no second reduce wave despite reducers > slots")
	}
}

func TestShuffleWindowOrdering(t *testing.T) {
	eng, workers := rig(t, 4)
	cfg := mapred.TerasortConfig(64*units.MiB, 4)
	cfg.BlockSize = 16 * units.MiB
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)
	lo, hi := job.ShuffleWindow()
	if lo <= 0 || hi <= lo {
		t.Errorf("shuffle window [%v, %v] malformed", lo, hi)
	}
	if hi > job.Finished {
		t.Error("shuffle ended after job finish")
	}
}

func TestMapTaskTimingMonotonicInBlock(t *testing.T) {
	eng, workers := rig(t, 2)
	small := mapred.TerasortConfig(16*units.MiB, 2)
	small.BlockSize = 16 * units.MiB
	j1 := mapred.NewJob(eng, small, workers)
	// Compare durations through the public task fields after a run.
	runJob(t, eng, j1)
	d1 := j1.Maps[0].End.Sub(j1.Maps[0].Start)

	eng2, workers2 := rig(t, 2)
	big := mapred.TerasortConfig(64*units.MiB, 2)
	big.BlockSize = 64 * units.MiB
	j2 := mapred.NewJob(eng2, big, workers2)
	runJob(t, eng2, j2)
	d2 := j2.Maps[0].End.Sub(j2.Maps[0].Start)

	if d2 <= d1 {
		t.Errorf("64MiB map (%v) not slower than 16MiB map (%v)", d2, d1)
	}
}

func TestParallelFetchKnobRespected(t *testing.T) {
	// The parallelism knob changes the traffic pattern (and hence timing)
	// but never the bytes moved. Note: more parallelism is NOT always
	// faster — concurrent fetches incast the receiver, which is exactly
	// the congestion the paper studies.
	run := func(par int) (units.Duration, units.ByteSize) {
		eng, workers := rig(t, 4)
		cfg := mapred.TerasortConfig(64*units.MiB, 4)
		cfg.BlockSize = 8 * units.MiB
		cfg.ParallelFetches = par
		job := mapred.NewJob(eng, cfg, workers)
		runJob(t, eng, job)
		return job.Runtime(), job.ShuffledBytes()
	}
	serialT, serialB := run(1)
	parT, parB := run(5)
	if serialB != parB {
		t.Errorf("bytes differ across parallelism: %v vs %v", serialB, parB)
	}
	if serialT == parT {
		t.Error("parallelism knob had no effect on timing at all")
	}
}

func TestOutputPerReducerMinimumOneByte(t *testing.T) {
	m := mapred.MapTask{Block: 10}
	cfg := mapred.TerasortConfig(10, 100)
	cfg.Reducers = 100
	if got := m.OutputPerReducer(&cfg); got < 1 {
		t.Errorf("OutputPerReducer = %d", got)
	}
}

func TestJobPanicsOnBadInputs(t *testing.T) {
	eng, workers := rig(t, 2)
	for i, f := range []func(){
		func() {
			bad := mapred.TerasortConfig(64*units.MiB, 4)
			bad.Reducers = 0
			mapred.NewJob(eng, bad, workers)
		},
		func() { mapred.NewJob(eng, mapred.TerasortConfig(64*units.MiB, 4), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterministicRuntime(t *testing.T) {
	run := func() units.Duration {
		eng, workers := rig(t, 4)
		cfg := mapred.TerasortConfig(64*units.MiB, 8)
		cfg.BlockSize = 16 * units.MiB
		job := mapred.NewJob(eng, cfg, workers)
		runJob(t, eng, job)
		return job.Runtime()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical configs produced different runtimes: %v vs %v", a, b)
	}
}

func TestReplicationPipelineMovesOutputOverNetwork(t *testing.T) {
	run := func(replicas int) (units.Duration, units.ByteSize) {
		eng, workers := rig(t, 4)
		cfg := mapred.TerasortConfig(64*units.MiB, 4)
		cfg.BlockSize = 16 * units.MiB
		cfg.ReplicationFactor = replicas
		job := mapred.NewJob(eng, cfg, workers)
		runJob(t, eng, job)
		return job.Runtime(), job.ShuffledBytes()
	}
	noRep, bytes1 := run(1)
	rep3, bytes3 := run(3)
	if bytes1 != bytes3 {
		t.Errorf("replication changed shuffle bytes: %v vs %v", bytes1, bytes3)
	}
	if rep3 <= noRep {
		t.Errorf("replication-3 runtime %v not above replication-1 %v (pipeline not exercised)", rep3, noRep)
	}
}

func TestReplicationPipelineTwoNodeCluster(t *testing.T) {
	// Replication beyond the cluster size clamps: a 2-node cluster can
	// hold at most 1 remote replica.
	eng, workers := rig(t, 2)
	cfg := mapred.TerasortConfig(32*units.MiB, 2)
	cfg.BlockSize = 16 * units.MiB
	cfg.ReplicationFactor = 3
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)
	if !job.Done() {
		t.Fatal("job with clamped replication incomplete")
	}
}

func TestReplicationDisabledByDefaultForTerasort(t *testing.T) {
	cfg := mapred.TerasortConfig(64*units.MiB, 4)
	if cfg.ReplicationFactor > 1 {
		t.Error("Terasort default should not replicate output")
	}
}

func TestWordCountShuffleSmallerThanTerasort(t *testing.T) {
	runBytes := func(cfg mapred.JobConfig) units.ByteSize {
		eng, workers := rig(t, 4)
		job := mapred.NewJob(eng, cfg, workers)
		runJob(t, eng, job)
		return job.ShuffledBytes()
	}
	tera := mapred.TerasortConfig(64*units.MiB, 8)
	tera.BlockSize = 16 * units.MiB
	wc := mapred.WordCountConfig(64*units.MiB, 8)
	wc.BlockSize = 16 * units.MiB

	tb, wb := runBytes(tera), runBytes(wc)
	if wb >= tb {
		t.Errorf("wordcount shuffled %v, not below terasort %v", wb, tb)
	}
	ratio := float64(wb) / float64(tb)
	if ratio < 0.15 || ratio > 0.25 {
		t.Errorf("wordcount shuffle ratio %.2f, want ~0.2", ratio)
	}
}

func TestShuffleOnlyConfigShape(t *testing.T) {
	cfg := mapred.ShuffleOnlyConfig(64*units.MiB, 8)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SlowStartAfterMaps != 0 {
		t.Error("shuffle-only must start reducers immediately")
	}
	eng, workers := rig(t, 4)
	cfg.BlockSize = 16 * units.MiB
	job := mapred.NewJob(eng, cfg, workers)
	runJob(t, eng, job)
	if job.ShuffledBytes() != 64*units.MiB {
		t.Errorf("shuffled %v", job.ShuffledBytes())
	}
}
