package ecnsim

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// httpLoadMatrixOpts shrinks the httpload workload to determinism-matrix
// size: the shard-matrix fabric with a short measured phase, so the 1/2/4/8
// shard × 1/4 worker sweep stays unit-test sized. The responses are big
// enough to push the rack uplinks into marking — the fabric counters must
// be live, or the byte-compare cannot see a shard-aggregation bug in them
// (TestHTTPLoadSmoke pins that they stay live).
func httpLoadMatrixOpts(extra ...Option) []Option {
	return append(shardMatrixOpts(
		RPCClients(4),
		RPCSizes(2048, 128<<10),
		RPCInterval(500*time.Microsecond),
		// Datacenter-tuned MinRTO: the ecn-default row drops ACKs, and the
		// resulting recovery tail is otherwise ~1 s of near-idle drain that
		// sharded runs cross one lookahead window at a time.
		MinRTO(10*time.Millisecond),
		Warmup(5*time.Millisecond),
		Measure(10*time.Millisecond),
		MeasureWindow(5*time.Millisecond),
	), extra...)
}

// TestHTTPLoadMatrixByteIdentical is the determinism matrix over the façade:
// real net/http servers and clients — goroutines the Go scheduler interleaves
// freely — driven through the virtual-time gate, must serialize to
// ResultSets byte-identical to the serial single-worker run at every shard
// and worker count. This is the tentpole contract of DESIGN.md §2.9.
func TestHTTPLoadMatrixByteIdentical(t *testing.T) {
	runShardMatrix(t, func(t *testing.T, shards int) []Job {
		return []Job{
			{Scenario: mustLookup(t, "httpload"), Cluster: mustCluster(t, httpLoadMatrixOpts(Shards(shards))...)},
		}
	})
}

// TestHTTPLoadSmoke pins the scenario's shape: three setup rows, populated
// exchange counts, zero failures.
func TestHTTPLoadSmoke(t *testing.T) {
	s := mustLookup(t, "httpload")
	rows, err := s.Run(context.Background(), mustCluster(t, httpLoadMatrixOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("httpload produced %d rows, want 3", len(rows))
	}
	labels := []string{"droptail", "ecn-default", "ecn-ack+syn"}
	for i, r := range rows {
		if r.Label != labels[i] {
			t.Errorf("row %d label = %q, want %q", i, r.Label, labels[i])
		}
		if r.Value(KeyRPCCount) == 0 {
			t.Errorf("row %q measured no exchanges", r.Label)
		}
		if r.Value(KeyRPCFailed) != 0 {
			t.Errorf("row %q reports %v failed exchanges", r.Label, r.Value(KeyRPCFailed))
		}
		if r.Value(KeyRPCP99) < r.Value(KeyRPCP50) || r.Value(KeyRPCP50) <= 0 {
			t.Errorf("row %q latency implausible: p50=%v p99=%v", r.Label, r.Value(KeyRPCP50), r.Value(KeyRPCP99))
		}
		// The ECN rows must mark: the matrix cell is only a determinism
		// probe for the fabric counters while the fabric actually marks,
		// and zero marks under RED here means the cell went uncontended.
		if i > 0 && r.Value(KeyMarks) == 0 {
			t.Errorf("row %q recorded no marks — matrix cell no longer exercises fabric counters", r.Label)
		}
	}
}

// TestFacadeOffFingerprintPinned pins the compatibility half of the façade
// contract: a configuration that never calls Facade() serializes without any
// façade field, so its fingerprint is what it would be had the façade never
// existed. The constants are the ecnsim-results/v3 hashes (the version that
// moved the link options into the experiment lowering); a change to them
// means the canonical form of a façade-off configuration changed.
func TestFacadeOffFingerprintPinned(t *testing.T) {
	const wantMatrix = "ec7696dc74ccefddab095a842527eed5e8a772c7b29315ef564a5de63f56c7e5"
	matrix := mustCluster(t, shardMatrixOpts()...)
	if got := matrix.Fingerprint(); got != wantMatrix {
		t.Errorf("shard-matrix config fingerprint moved:\n got  %s\n want %s", got, wantMatrix)
	}
	const wantStar = "368cb9af8d2c997742c2f7412dacaf86c0b43f435959865ee808bdf7922d68b1"
	star := mustCluster(t, Nodes(4), Queue(DropTail), Seed(7))
	if got := star.Fingerprint(); got != wantStar {
		t.Errorf("star config fingerprint moved:\n got  %s\n want %s", got, wantStar)
	}
	for _, c := range []*Cluster{matrix, star} {
		if js := c.canonicalJSON(); bytes.Contains(js, []byte("facade")) {
			t.Errorf("façade-off canonical form carries a façade field: %s", js)
		}
	}
}

// TestFacadeMovesFingerprint: the façade is part of the canonical form —
// results simulated with it must not satisfy a cache key minted without it.
func TestFacadeMovesFingerprint(t *testing.T) {
	off := mustCluster(t, shardMatrixOpts()...)
	on := mustCluster(t, shardMatrixOpts(Facade())...)
	if off.Fingerprint() == on.Fingerprint() {
		t.Error("Facade() did not move the fingerprint")
	}
}
