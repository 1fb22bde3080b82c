package ecnsim

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"strconv"
	"testing"
	"time"
)

// shardMatrixOpts is a leaf-spine fabric wide enough for eight shards
// (shards are capped at one per rack) while staying unit-test sized.
func shardMatrixOpts(extra ...Option) []Option {
	return append([]Option{
		Nodes(16),
		Racks(8),
		Spines(2),
		InputSize(32 << 20),
		BlockSize(8 << 20),
		Reducers(4),
		Queue(RED),
		Protect(ACKSYN),
		TargetDelay(100 * time.Microsecond),
		Seed(1),
	}, extra...)
}

// runShardMatrix drives the determinism matrix: jobs(shards) builds the job
// list for one shard count, and every 1/2/4/8-shard × 1/4-worker combination
// must serialize to a ResultSet byte-identical to the serial single-worker
// run. Shards parallelize inside one simulation, Runner workers parallelize
// across simulations; neither may leak into the results.
func runShardMatrix(t *testing.T, jobs func(t *testing.T, shards int) []Job) {
	t.Helper()
	run := func(shards, workers int) []byte {
		t.Helper()
		r := &Runner{Workers: workers}
		rs, err := r.Run(context.Background(), jobs(t, shards)...)
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
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			if got := run(shards, workers); !bytes.Equal(got, want) {
				t.Errorf("ResultSet at %d shards / %d workers diverged from serial:\n got:  %s\n want: %s",
					shards, workers, got, want)
			}
		}
	}
}

// TestShardMatrixByteIdentical is the cross-engine determinism matrix over
// the plain packet engine: the leafspine, degradedfabric and mixed
// scenarios.
func TestShardMatrixByteIdentical(t *testing.T) {
	runShardMatrix(t, func(t *testing.T, shards int) []Job {
		return []Job{
			{Scenario: mustLookup(t, "leafspine"), Cluster: mustCluster(t, shardMatrixOpts(Shards(shards))...)},
			{Scenario: mustLookup(t, "degradedfabric"), Cluster: mustCluster(t, shardMatrixOpts(Shards(shards))...)},
			{Scenario: mustLookup(t, "mixed"), Cluster: mustCluster(t, shardMatrixOpts(Shards(shards))...)},
		}
	})
}

// TestNotifyMatrixByteIdentical is the same matrix over the congestion
// notifier: hotspot (reroute + throttle on the derated fabric), plus
// degradedfabric and mixed with notifications on. Notifications cross the
// shard cut — occupancy crossings observed in shard context become control
// events that re-salt routing and gate sources — so this is the proof that
// the whole notification pipeline lives inside the determinism contract.
func TestNotifyMatrixByteIdentical(t *testing.T) {
	runShardMatrix(t, func(t *testing.T, shards int) []Job {
		return []Job{
			{Scenario: mustLookup(t, "hotspot"), Cluster: mustCluster(t, shardMatrixOpts(Notify(), Shards(shards))...)},
			{Scenario: mustLookup(t, "degradedfabric"), Cluster: mustCluster(t, shardMatrixOpts(Notify(), Shards(shards))...)},
			{Scenario: mustLookup(t, "mixed"), Cluster: mustCluster(t, shardMatrixOpts(Notify(), Shards(shards))...)},
		}
	})
}

// TestShardsOptionValidation pins the NewCluster-time contract of the
// Shards/ShardAuto options.
func TestShardsOptionValidation(t *testing.T) {
	// Explicit counts below 1 are rejected at option time.
	for _, n := range []int{0, -1, -7} {
		if _, err := NewCluster(shardMatrixOpts(Shards(n))...); err == nil {
			t.Errorf("Shards(%d) accepted", n)
		}
	}
	// More shards than leaves is rejected: the leaf/spine cut yields at most
	// one shard per rack.
	if _, err := NewCluster(shardMatrixOpts(Shards(9))...); err == nil {
		t.Error("Shards(9) on an 8-rack fabric accepted")
	}
	// In-range explicit requests resolve verbatim.
	c := mustCluster(t, shardMatrixOpts(Shards(4))...)
	if c.Shards() != 4 || len(c.Warnings()) != 0 {
		t.Errorf("Shards(4) resolved to %d with warnings %v", c.Shards(), c.Warnings())
	}
	// ShardAuto survives resolution as the sentinel on any fabric — the
	// machine-dependent count is chosen at run time, never baked into the
	// configuration (which must stay machine-independent).
	c = mustCluster(t, shardMatrixOpts(ShardAuto())...)
	if c.Shards() != AutoShards {
		t.Errorf("ShardAuto resolved to %d, want AutoShards (%d)", c.Shards(), AutoShards)
	}
	if c := mustCluster(t, Nodes(8), ShardAuto()); c.Shards() != AutoShards || len(c.Warnings()) != 0 {
		t.Errorf("ShardAuto on a star fabric: shards %d, warnings %v", c.Shards(), c.Warnings())
	}
}

// TestShardFallbackWarning: an explicit Shards(n > 1) on a fabric with no
// leaf/spine cut demotes to serial with a typed warning instead of failing.
func TestShardFallbackWarning(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"star", []Option{Nodes(8), Shards(4)}},
		{"two-tier", []Option{Nodes(8), Racks(4), Shards(4)}},
	} {
		c := mustCluster(t, tc.opts...)
		if c.Shards() != 1 {
			t.Errorf("%s: demoted shard count = %d, want 1", tc.name, c.Shards())
		}
		var w *ShardFallbackWarning
		if len(c.Warnings()) != 1 || !errors.As(c.Warnings()[0], &w) {
			t.Fatalf("%s: warnings = %v, want one *ShardFallbackWarning", tc.name, c.Warnings())
		}
		if w.Requested != 4 {
			t.Errorf("%s: warning carries request %d, want 4", tc.name, w.Requested)
		}
	}
}

// TestShardsMoveFingerprint documents that the shard request is part of the
// canonical form: results are bit-identical at every count, so keying the
// cache on it costs at worst a recompute — while leaving any run-plan field
// out of the key is the failure mode the fingerprintcoverage lint exists to
// prevent.
func TestShardsMoveFingerprint(t *testing.T) {
	serial := mustCluster(t, shardMatrixOpts()...)
	sharded := mustCluster(t, shardMatrixOpts(Shards(4))...)
	if serial.Fingerprint() == sharded.Fingerprint() {
		t.Error("Shards(4) did not move the fingerprint")
	}
}

// TestFlagBinderGroups: a binder registers exactly its groups' flags, plus
// -shards always.
func TestFlagBinderGroups(t *testing.T) {
	has := func(fs *flag.FlagSet, name string) bool { return fs.Lookup(name) != nil }

	fs := flag.NewFlagSet("fabric-only", flag.ContinueOnError)
	b := NewFlagBinder(FlagsFabric)
	b.Bind(fs)
	for _, want := range []string{"racks", "spines", "shards"} {
		if !has(fs, want) {
			t.Errorf("FlagsFabric binder missing -%s", want)
		}
	}
	for _, absent := range []string{"queue", "buffer", "target", "seed", "jobs"} {
		if has(fs, absent) {
			t.Errorf("FlagsFabric binder registered stray -%s", absent)
		}
	}

	fs = flag.NewFlagSet("everything", flag.ContinueOnError)
	b = NewFlagBinder(FlagsQueue | FlagsBuffer | FlagsWorkload | FlagsFabric | FlagsSeed | FlagsTenant)
	b.Bind(fs)
	for _, want := range []string{
		"queue", "mode", "transport", "buffer", "target", "nodes", "input",
		"block", "reducers", "racks", "spines", "seed", "jobs", "arrival",
		"rpc-clients", "shards",
	} {
		if !has(fs, want) {
			t.Errorf("full binder missing -%s", want)
		}
	}
}

// TestFlagBinderShards: -shards parses through to the builder — explicit
// counts verbatim, 0 as ShardAuto, negatives rejected at option time.
func TestFlagBinderShards(t *testing.T) {
	parse := func(t *testing.T, args ...string) (*Cluster, error) {
		t.Helper()
		b := NewFlagBinder(FlagsFabric)
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		b.Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		opts, err := b.Options()
		if err != nil {
			return nil, err
		}
		return NewCluster(append([]Option{Nodes(16)}, opts...)...)
	}

	c, err := parse(t, "-racks", "8", "-spines", "2", "-shards", "4")
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 {
		t.Errorf("-shards 4 resolved to %d", c.Shards())
	}

	c, err = parse(t, "-racks", "8", "-spines", "2", "-shards", "0")
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != AutoShards {
		t.Errorf("-shards 0 resolved to %d, want AutoShards", c.Shards())
	}

	// Unset, the default is serial — no silent auto-sharding.
	c, err = parse(t, "-racks", "8", "-spines", "2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 1 {
		t.Errorf("default -shards resolved to %d, want 1", c.Shards())
	}

	if _, err := parse(t, "-shards", strconv.Itoa(-2)); err == nil {
		t.Error("-shards -2 accepted")
	}
}

// TestFlagBinderOptionsScoped: an unbound group contributes no options, so
// builder defaults survive — the binder must not push its FlagSet's zero
// values over them.
func TestFlagBinderOptionsScoped(t *testing.T) {
	b := NewFlagBinder(FlagsFabric)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b.Bind(fs)
	if err := fs.Parse([]string{"-racks", "4", "-spines", "2"}); err != nil {
		t.Fatal(err)
	}
	opts, err := b.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(append([]Option{Queue(RED), Protect(ACKSYN), TargetDelay(250 * time.Microsecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if c.Racks() != 4 || c.Spines() != 2 {
		t.Errorf("fabric = %d/%d, want 4/2", c.Racks(), c.Spines())
	}
	// The queue configuration came from the caller's options, untouched by
	// the binder's unbound FlagsQueue defaults ("droptail").
	if c.QueueKind() != RED || c.Label() != "ecn-ack+syn" {
		t.Errorf("unbound queue group leaked into the builder: %v", c)
	}
}
