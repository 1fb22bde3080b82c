package ecnsim

import (
	"bytes"
	"context"
	"flag"
	"testing"
	"time"
)

// hybridMatrixOpts is the macroscale determinism matrix's cell: 64 nodes in 8
// racks under 4 spines, hot-spotted enough to exercise both service levels,
// short enough for the race detector.
func hybridMatrixOpts(extra ...Option) []Option {
	return append([]Option{
		Nodes(64), Racks(8), Spines(4),
		Queue(RED), Protect(ACKSYN), TargetDelay(500 * time.Microsecond),
		Warmup(5 * time.Millisecond), Measure(40 * time.Millisecond),
		// 512 KiB background transfers finish inside the short window (a
		// 4 MiB default at the fan-out demand slice would outlive it).
		FlowSize(512 << 10),
		Hybrid(),
		Seed(1),
	}, extra...)
}

// TestHybridThreshold0Exactness pins the hybrid engine's exactness mode:
// Hybrid() with FluidThreshold(0) admits nothing fluidly, subscribes no
// fluid observer, and must therefore serialize byte-identical ResultSets to
// the pure packet engine — on the single-switch shuffle and on the
// leaf-spine fabric alike.
func TestHybridThreshold0Exactness(t *testing.T) {
	run := func(hybrid bool) []byte {
		t.Helper()
		base := []Option{
			TestScale(), Queue(RED), Protect(ACKSYN),
			TargetDelay(100 * time.Microsecond), Seed(1),
		}
		if hybrid {
			base = append(base, Hybrid(), FluidThreshold(0))
		}
		fabric := append(append([]Option{}, base...), Racks(4), Spines(2))
		jobs := []Job{
			{Scenario: mustLookup(t, "terasort"), Cluster: mustCluster(t, base...)},
			{Scenario: mustLookup(t, "leafspine"), Cluster: mustCluster(t, fabric...)},
		}
		rs, err := (&Runner{Workers: 1}).Run(context.Background(), jobs...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	packet, exact := run(false), run(true)
	if !bytes.Equal(packet, exact) {
		t.Errorf("Hybrid()+FluidThreshold(0) diverged from the packet engine:\n packet: %s\n hybrid: %s", packet, exact)
	}
}

// TestMacroscaleHybridMatrixByteIdentical is the hybrid determinism matrix:
// the macroscale scenario across {1, 4} event-loop shards × {1, 4} Runner
// workers must serialize byte-identical ResultSets. Two seeds per run give
// the worker pool actual concurrency to mis-order.
func TestMacroscaleHybridMatrixByteIdentical(t *testing.T) {
	run := func(shards, workers int) []byte {
		t.Helper()
		jobs := []Job{
			{Scenario: mustLookup(t, "macroscale"), Cluster: mustCluster(t, hybridMatrixOpts(Shards(shards))...)},
			{Scenario: mustLookup(t, "macroscale"), Cluster: mustCluster(t, hybridMatrixOpts(Shards(shards), Seed(2))...)},
		}
		rs, err := (&Runner{Workers: workers}).Run(context.Background(), jobs...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := run(1, 1)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			if got := run(shards, workers); !bytes.Equal(got, want) {
				t.Errorf("macroscale ResultSet at %d shards / %d workers diverged from serial:\n got:  %s\n want: %s",
					shards, workers, got, want)
			}
		}
	}
}

// TestMacroscaleExercisesBothLevels: the matrix cell is only a determinism
// probe if it actually runs both service levels — fluid transfers must
// dominate and the hot spots must force promotions to packet level.
func TestMacroscaleExercisesBothLevels(t *testing.T) {
	rs, err := (&Runner{Workers: 1}).Run(context.Background(),
		Job{Scenario: mustLookup(t, "macroscale"), Cluster: mustCluster(t, hybridMatrixOpts()...)})
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Results[0]
	if r.Value(KeyFluidCompleted) == 0 || r.Value(KeyFluidBytes) == 0 {
		t.Errorf("no fluid service: %v", r.Values)
	}
	if r.Value(KeyPromotions) == 0 || r.Value(KeyPacketBytes) == 0 {
		t.Errorf("no packet service: %v", r.Values)
	}
	if r.Value(KeyJobsCompleted) == 0 || r.Value(KeyRPCCount) == 0 {
		t.Errorf("workload did not score: %v", r.Values)
	}
}

// TestHybridFingerprint pins the canonical-form contract of the hybrid knobs:
// a Hybrid-off configuration fingerprints identically whatever the resolved
// threshold defaults say (they must not lower), while Hybrid() and each knob
// move the fingerprint.
func TestHybridFingerprint(t *testing.T) {
	base := mustCluster(t, TestScale())
	// The resolved defaults (threshold 0.9, hysteresis 1 ms) exist on every
	// cluster; without Hybrid() they must stay out of the canonical form.
	if got := mustCluster(t, TestScale(), FluidThreshold(0.5)); base.Fingerprint() != got.Fingerprint() {
		t.Error("FluidThreshold without Hybrid() moved the fingerprint")
	}
	hybrid := mustCluster(t, TestScale(), Hybrid())
	if base.Fingerprint() == hybrid.Fingerprint() {
		t.Error("Hybrid() did not move the fingerprint")
	}
	if got := mustCluster(t, TestScale(), Hybrid(), FluidThreshold(0.5)); got.Fingerprint() == hybrid.Fingerprint() {
		t.Error("FluidThreshold under Hybrid() did not move the fingerprint")
	}
	if got := mustCluster(t, TestScale(), Hybrid(), PromoteHysteresis(5*time.Millisecond)); got.Fingerprint() == hybrid.Fingerprint() {
		t.Error("PromoteHysteresis under Hybrid() did not move the fingerprint")
	}
}

// TestFlagsHybrid: the FlagsHybrid group binds -hybrid and -fluid-threshold,
// resolves them only when -hybrid is set, and stays off other binders.
func TestFlagsHybrid(t *testing.T) {
	b := NewFlagBinder(FlagsHybrid | FlagsFabric)
	fs := flag.NewFlagSet("hybrid", flag.ContinueOnError)
	b.Bind(fs)
	for _, want := range []string{"hybrid", "fluid-threshold", "shards"} {
		if fs.Lookup(want) == nil {
			t.Errorf("FlagsHybrid binder missing -%s", want)
		}
	}
	if fs := flag.NewFlagSet("plain", flag.ContinueOnError); true {
		NewFlagBinder(FlagsFabric).Bind(fs)
		if fs.Lookup("hybrid") != nil {
			t.Error("FlagsFabric binder grew -hybrid")
		}
	}

	if err := fs.Parse([]string{"-hybrid", "-fluid-threshold", "0.5", "-racks", "8", "-spines", "4"}); err != nil {
		t.Fatal(err)
	}
	opts, err := b.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(append([]Option{Nodes(64)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	// Shards(1): the binder's implicit FlagsRun group always resolves.
	want := mustCluster(t, Nodes(64), Racks(8), Spines(4), Shards(1), Hybrid(), FluidThreshold(0.5))
	if c.Fingerprint() != want.Fingerprint() {
		t.Errorf("flag-built cluster fingerprint diverges from the option-built one")
	}

	// Without -hybrid the threshold flag contributes nothing: the build is
	// fingerprint-identical to a plain cluster.
	b2 := NewFlagBinder(FlagsHybrid)
	fs2 := flag.NewFlagSet("off", flag.ContinueOnError)
	b2.Bind(fs2)
	if err := fs2.Parse([]string{"-fluid-threshold", "0.3"}); err != nil {
		t.Fatal(err)
	}
	opts2, err := b2.Options()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCluster(opts2...)
	if err != nil {
		t.Fatal(err)
	}
	if plain := mustCluster(t, Shards(1)); c2.Fingerprint() != plain.Fingerprint() {
		t.Error("-fluid-threshold without -hybrid moved the fingerprint")
	}
}
