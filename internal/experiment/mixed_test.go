package experiment_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/units"
)

func mixedRun(setup experiment.QueueSetup, buf cluster.BufferDepth) experiment.MixedResult {
	return experiment.RunMixed(experiment.Config{
		Setup:       setup,
		Buffer:      buf,
		TargetDelay: 100 * units.Microsecond,
		Scale:       tinyScale(),
		Seed:        1,
	})
}

func TestMixedProducesRPCSamples(t *testing.T) {
	r := mixedRun(experiment.SetupDropTail, cluster.Shallow)
	if r.RPCCount < 20 {
		t.Fatalf("only %d RPC samples over the job", r.RPCCount)
	}
	if r.RPCMean <= 0 || r.RPCP99 < r.RPCP50 || r.RPCMax < r.RPCP99 {
		t.Errorf("RPC stats malformed: mean=%v p50=%v p99=%v max=%v",
			r.RPCMean, r.RPCP50, r.RPCP99, r.RPCMax)
	}
	if r.Runtime <= 0 {
		t.Error("job runtime missing")
	}
}

// TestMixedMarkingProtectsServiceLatency pins the paper's motivation: with
// the marking scheme, the co-located service's tail latency is far below
// the deep-buffer DropTail bufferbloat case.
func TestMixedMarkingProtectsServiceLatency(t *testing.T) {
	bloat := mixedRun(experiment.SetupDropTail, cluster.Deep)
	marked := mixedRun(experiment.SetupDCTCPSimpleMark, cluster.Shallow)
	if marked.RPCP99 >= bloat.RPCP99 {
		t.Errorf("marking p99 %v not below deep-droptail p99 %v", marked.RPCP99, bloat.RPCP99)
	}
	if marked.Runtime > bloat.Runtime*2 {
		t.Errorf("marking sacrificed the job: %v vs %v", marked.Runtime, bloat.Runtime)
	}
}

func TestMixedDeterministic(t *testing.T) {
	a := mixedRun(experiment.SetupECNAckSyn, cluster.Shallow)
	b := mixedRun(experiment.SetupECNAckSyn, cluster.Shallow)
	if a.RPCMean != b.RPCMean || a.Runtime != b.Runtime || a.RPCCount != b.RPCCount {
		t.Error("mixed runs diverged across identical configs")
	}
}
