package ecnsim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/experiment"
	"repro/internal/units"
)

// Extra value keys produced by specific built-in scenarios.
const (
	// terasort phase breakdown.
	KeyMaps           = "maps"
	KeyMapFinish      = "map_finish_s"
	KeyShuffleStart   = "shuffle_start_s"
	KeyShuffleEnd     = "shuffle_end_s"
	KeySlowestShuffle = "slowest_shuffle_s"
	KeySlowestReducer = "slowest_reducer"

	// incast.
	KeySenders    = "senders"
	KeyFlowBytes  = "flow_bytes"
	KeyCompleted  = "completed"
	KeyCompletion = "completion_s"
	KeyGoodput    = "goodput_bps"

	// mixed.
	KeyJobRuntime = "job_runtime_s"
	KeyRPCCount   = "rpc_count"
	KeyRPCMean    = "rpc_mean_s"
	KeyRPCP50     = "rpc_p50_s"
	KeyRPCP99     = "rpc_p99_s"
	KeyRPCMax     = "rpc_max_s"
	KeyRPCFailed  = "rpc_failed"
)

// identityKeys are metrics that name things rather than measure them;
// averaging them across seed replications would produce IDs belonging to no
// run, so the Runner keeps the first replication's value instead.
var identityKeys = map[string]bool{
	KeySlowestReducer: true,
}

func init() {
	Register(NewScenario("terasort",
		"one Terasort job; the paper's three figure metrics plus a per-phase breakdown",
		runTerasort))
	Register(NewScenario("incast",
		"N synchronized senders to one receiver; the shuffle's worst-case microbenchmark",
		runIncast))
	Register(NewScenario("mixed",
		"latency-sensitive RPC probe sharing the fabric with a Terasort shuffle",
		runMixed))
	Register(NewScenario("aqmcompare",
		"RED, CoDel and PIE each with and without ACK+SYN protection, vs DropTail and SimpleMark",
		runAQMCompare))
}

// experimentValues maps the figure metrics of an internal result onto
// canonical keys.
func experimentValues(r experiment.Result) map[string]float64 {
	return map[string]float64{
		KeyTargetDelay:   r.Config.TargetDelay.Seconds(),
		KeyRuntime:       r.Runtime.Seconds(),
		KeyThroughput:    float64(r.ThroughputPerNode),
		KeyMeanLatency:   r.MeanLatency.Seconds(),
		KeyP99Latency:    r.P99Latency.Seconds(),
		KeyShuffledBytes: float64(r.ShuffledBytes),
		KeyEarlyDrops:    float64(r.EarlyDrops),
		KeyOverflowDrops: float64(r.OverflowDrops),
		KeyAckDropShare:  r.AckDropShare,
		KeyMarks:         float64(r.Marks),
		KeyRetransmits:   float64(r.Retransmits),
		KeyRTOEvents:     float64(r.RTOEvents),
		KeySynRetries:    float64(r.SynRetries),
		KeyFetchRetries:  float64(r.FetchRetries),
		KeySimEvents:     float64(r.Events),
		KeySimTime:       r.SimTime.Seconds(),
	}
}

func runTerasort(ctx context.Context, c *Cluster) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, job := experiment.RunJob(c.experimentConfig())
	values := experimentValues(r)

	var mapEnd units.Time
	for _, m := range job.Maps {
		if m.End > mapEnd {
			mapEnd = m.End
		}
	}
	lo, hi := job.ShuffleWindow()
	var worst units.Duration
	var worstID int
	for _, rd := range job.Reduces {
		if d := rd.ShuffleEnd.Sub(rd.ShuffleStart); d > worst {
			worst, worstID = d, rd.ID
		}
	}
	values[KeyMaps] = float64(len(job.Maps))
	values[KeyMapFinish] = mapEnd.Seconds()
	values[KeyShuffleStart] = lo.Seconds()
	values[KeyShuffleEnd] = hi.Seconds()
	values[KeySlowestShuffle] = worst.Seconds()
	values[KeySlowestReducer] = float64(worstID)

	return []Result{{Scenario: "terasort", Label: c.Label(), Seed: c.seed, Values: values}}, nil
}

func runIncast(ctx context.Context, c *Cluster) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := experiment.RunIncast(c.experimentConfig(), c.senders, units.ByteSize(c.flowSize))
	values := map[string]float64{
		KeyTargetDelay:   c.targetDelay.Seconds(),
		KeySenders:       float64(r.Senders),
		KeyFlowBytes:     float64(r.Flow),
		KeyCompleted:     float64(r.Completed),
		KeyCompletion:    r.Last.Seconds(),
		KeyGoodput:       float64(r.AggGoodput),
		KeyEarlyDrops:    float64(r.EarlyDrops),
		KeyOverflowDrops: float64(r.OverflowDrops),
		KeyRetransmits:   float64(r.Retransmits),
		KeyRTOEvents:     float64(r.RTOEvents),
		KeyMeanLatency:   r.MeanLatency.Seconds(),
		KeySimEvents:     float64(r.Events),
		KeySimTime:       r.SimTime.Seconds(),
	}
	return []Result{{Scenario: "incast", Label: c.Label(), Seed: c.seed, Values: values}}, nil
}

func runMixed(ctx context.Context, c *Cluster) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := experiment.RunMixedInterval(c.experimentConfig(), c.rpcInterval)
	values := map[string]float64{
		KeyTargetDelay: c.targetDelay.Seconds(),
		KeyJobRuntime:  r.Runtime.Seconds(),
		KeyRPCCount:    float64(r.RPCCount),
		KeyRPCMean:     r.RPCMean.Seconds(),
		KeyRPCP50:      r.RPCP50.Seconds(),
		KeyRPCP99:      r.RPCP99.Seconds(),
		KeyRPCMax:      r.RPCMax.Seconds(),
		KeyRPCFailed:   float64(r.RPCFailed),
		KeySimEvents:   float64(r.Events),
		KeySimTime:     r.SimTime.Seconds(),
	}
	return []Result{{Scenario: "mixed", Label: c.Label() + "/" + c.buffer.String(), Seed: c.seed, Values: values}}, nil
}

// runAQMCompare answers the generalization question: one row per AQM setup
// (RED, CoDel, PIE x default/ack+syn, plus SimpleMark) at the cluster's
// target delay, preceded by the DropTail baseline. The cluster's own queue
// settings are ignored; its scale, buffer, target delay and seed apply.
func runAQMCompare(ctx context.Context, c *Cluster) ([]Result, error) {
	cmp, err := experiment.CompareAQMsConfig(ctx, c.experimentConfig())
	if err != nil {
		return nil, err
	}
	rows := make([]Result, 0, 1+len(cmp.Rows))
	for _, r := range append([]experiment.Result{cmp.Baseline}, cmp.Rows...) {
		rows = append(rows, Result{
			Scenario: "aqmcompare",
			Label:    r.Config.Setup.Label,
			Seed:     c.seed,
			Values:   experimentValues(r),
		})
	}
	return rows, nil
}

// RenderAQMTable formats aqmcompare rows as the cross-AQM generalization
// table, normalized to the first (DropTail baseline) row.
func RenderAQMTable(rows []Result) string {
	var b strings.Builder
	if len(rows) == 0 {
		return "aqmcompare: no rows\n"
	}
	base := rows[0]
	fmt.Fprintf(&b, "AQM generalization — target delay %v (normalized to %s)\n",
		base.Duration(KeyTargetDelay), base.Label)
	fmt.Fprintf(&b, "%-18s %9s %11s %9s %9s %7s\n",
		"setup", "runtime", "throughput", "latency", "earlydrop", "rto")
	norm := func(r Result, key string) float64 {
		if base.Value(key) == 0 {
			return 0
		}
		return r.Value(key) / base.Value(key)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9.3f %11.3f %9.3f %9.0f %7.0f\n",
			r.Label,
			norm(r, KeyRuntime), norm(r, KeyThroughput), norm(r, KeyMeanLatency),
			r.Value(KeyEarlyDrops), r.Value(KeyRTOEvents))
	}
	return b.String()
}
