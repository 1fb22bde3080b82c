package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/ecnsim"
)

// workload is one benchmark cell: a registered scenario over a fixed cluster
// configuration, plus the seed-independent invariants its rows must satisfy.
type workload struct {
	name     string
	scenario string
	opts     []ecnsim.Option
	// twin, if set, holds options that, appended to opts, give a
	// configuration whose rows must equal this one's bit for bit (all values
	// but sim_events); the golden digest is recorded from it.
	twin  []ecnsim.Option
	check func(rows []ecnsim.Result) error
}

var workloads = []*workload{
	{
		// The paper's own cell: one Terasort at paper scale under RED's
		// default mode with DCTCP, shallow buffers, serial engine.
		name:     "shuffle",
		scenario: "terasort",
		opts: []ecnsim.Option{
			ecnsim.PaperScale(),
			ecnsim.Queue(ecnsim.RED),
			ecnsim.Protect(ecnsim.NoProtection),
			ecnsim.Transport(ecnsim.DCTCP),
			ecnsim.TargetDelay(500 * time.Microsecond),
			ecnsim.Buffer(ecnsim.Shallow),
		},
		check: func(rows []ecnsim.Result) error {
			if err := checkShuffle(rows, 1<<30); err != nil {
				return err
			}
			if maps := rows[0].Values[ecnsim.KeyMaps]; maps != 16 {
				return fmt.Errorf("%v maps ran, want 16", maps)
			}
			return nil
		},
	},
	{
		// The hybrid engine's regime: a 4096-node leaf-spine cell where the
		// fluid solver and the fabric build dominate.
		name:     "macroscale",
		scenario: "macroscale",
		opts: []ecnsim.Option{
			ecnsim.Nodes(4096),
			ecnsim.Racks(128),
			ecnsim.Spines(8),
			ecnsim.Queue(ecnsim.RED),
			ecnsim.Protect(ecnsim.ACKSYN),
			ecnsim.TargetDelay(500 * time.Microsecond),
			ecnsim.Warmup(5 * time.Millisecond),
			ecnsim.Measure(150 * time.Millisecond),
			ecnsim.FlowSize(512 << 10),
			ecnsim.Hybrid(),
		},
		check: func(rows []ecnsim.Result) error {
			if len(rows) != 1 {
				return fmt.Errorf("%d rows, want 1", len(rows))
			}
			v := rows[0].Values
			switch {
			case v[ecnsim.KeyJobsCompleted] < 1:
				return fmt.Errorf("no job completed")
			case v[ecnsim.KeyJobsCompleted] > v[ecnsim.KeyJobsSubmitted]:
				return fmt.Errorf("%v jobs completed of %v submitted", v[ecnsim.KeyJobsCompleted], v[ecnsim.KeyJobsSubmitted])
			case v[ecnsim.KeyFluidBytes] <= 0 || v[ecnsim.KeyPacketBytes] <= 0:
				return fmt.Errorf("bytes not split across levels: fluid %v, packet %v", v[ecnsim.KeyFluidBytes], v[ecnsim.KeyPacketBytes])
			case v[ecnsim.KeyFluidCompleted] > v[ecnsim.KeyFluidStarted]:
				return fmt.Errorf("%v fluid transfers completed of %v started", v[ecnsim.KeyFluidCompleted], v[ecnsim.KeyFluidStarted])
			case v[ecnsim.KeyRPCCount] < 1:
				return fmt.Errorf("no RPC probe completed")
			}
			return nil
		},
	},
	{
		// The packet layers used differently: windowed engines, the
		// cross-shard inbox and barrier, ECMP reselection and notifications.
		name:     "hotspot-sharded",
		scenario: "hotspot",
		opts: []ecnsim.Option{
			ecnsim.Nodes(16),
			ecnsim.Racks(4),
			ecnsim.Spines(2),
			ecnsim.InputSize(512 << 20),
			ecnsim.Queue(ecnsim.RED),
			ecnsim.TargetDelay(500 * time.Microsecond),
			ecnsim.Notify(),
			ecnsim.Shards(2),
		},
		twin: []ecnsim.Option{ecnsim.Shards(1)},
		check: func(rows []ecnsim.Result) error {
			if err := checkShuffle(rows, 512<<20); err != nil {
				return err
			}
			v := rows[0].Values
			if v[ecnsim.KeyNotifications] < 1 || v[ecnsim.KeyRerouted] < 1 {
				return fmt.Errorf("notifications %v, rerouted packets %v: the notifier never engaged", v[ecnsim.KeyNotifications], v[ecnsim.KeyRerouted])
			}
			return nil
		},
	},
	{
		// The open-loop tenant harness: an RPC fleet beside a batch job
		// stream under three queue setups. Jobs arrive every 20 ms and are
		// small (2-4 MiB), so each row runs 63 of them: with Poisson
		// arrivals of the default 32-64 MiB jobs a row held about 8, and the
		// work per seed varied too much for a steady median.
		name:     "tenantmix",
		scenario: "tenantmix",
		opts: []ecnsim.Option{
			ecnsim.TestScale(),
			ecnsim.InputSize(8 << 20),
			ecnsim.BlockSize(1 << 20),
			ecnsim.Arrivals(ecnsim.FixedArrivals, 20*time.Millisecond),
			ecnsim.RPCClients(8),
			ecnsim.Measure(time.Second),
		},
		check: func(rows []ecnsim.Result) error {
			want := []string{"droptail", "ecn-default", "ecn-ack+syn"}
			if len(rows) != len(want) {
				return fmt.Errorf("%d rows, want %d", len(rows), len(want))
			}
			for i, r := range rows {
				v := r.Values
				switch {
				case r.Label != want[i]:
					return fmt.Errorf("row %d is %q, want %q", i, r.Label, want[i])
				case v[ecnsim.KeyDrained] != 1:
					return fmt.Errorf("%s: job backlog not drained", r.Label)
				case v[ecnsim.KeyRPCFailed] != 0:
					return fmt.Errorf("%s: %v RPCs failed", r.Label, v[ecnsim.KeyRPCFailed])
				case v[ecnsim.KeyJobsSubmitted] < 1 || v[ecnsim.KeyJobsCompleted] != v[ecnsim.KeyJobsSubmitted]:
					return fmt.Errorf("%s: %v jobs completed of %v submitted", r.Label, v[ecnsim.KeyJobsCompleted], v[ecnsim.KeyJobsSubmitted])
				case v[ecnsim.KeyRPCCount] < 1:
					return fmt.Errorf("%s: no RPC completed", r.Label)
				}
			}
			return nil
		},
	},
}

// checkShuffle holds for one finished Terasort: every reducer fetched its
// partition, so the shuffled bytes equal the input.
func checkShuffle(rows []ecnsim.Result, input int64) error {
	if len(rows) != 1 {
		return fmt.Errorf("%d rows, want 1", len(rows))
	}
	v := rows[0].Values
	switch {
	case v[ecnsim.KeyShuffledBytes] != float64(input):
		return fmt.Errorf("shuffled %v bytes, want the input's %d", v[ecnsim.KeyShuffledBytes], input)
	case v[ecnsim.KeyRuntime] <= 0:
		return fmt.Errorf("runtime %v", v[ecnsim.KeyRuntime])
	}
	return nil
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// defaultSeed is the simulation seed the golden digests are recorded at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden maps a workload to the digest of its rows at defaultSeed.
func golden() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return m, nil
}

// digest hashes every row's label and values except sim_events, whose count
// legitimately differs between serial and sharded engines (barrier events).
func digest(rows []ecnsim.Result) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "row %s\n", r.Label)
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			if k != ecnsim.KeySimEvents {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
