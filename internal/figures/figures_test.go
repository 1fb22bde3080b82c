package figures_test

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/units"
)

// TestTableI_TCPHeaderCodepoints regenerates the paper's Table I.
func TestTableI_TCPHeaderCodepoints(t *testing.T) {
	s := figures.TableI()
	for _, want := range []string{"ECE", "CWR", "ECN-Echo", "Congestion Window Reduced", "01", "10"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

// TestTableII_IPHeaderCodepoints regenerates the paper's Table II.
func TestTableII_IPHeaderCodepoints(t *testing.T) {
	s := figures.TableII()
	for _, want := range []string{"Non-ECT", "ECT(0)", "ECT(1)", "CE", "Congestion Encountered", "00", "10", "01", "11"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

// tinySweep executes one small grid, shared across tests (runs are
// deterministic, so sharing cannot couple test outcomes).
var sharedSweep *experiment.Sweep

func tinySweep(t *testing.T) *experiment.Sweep {
	t.Helper()
	if sharedSweep == nil {
		s := experiment.NewSweep(experiment.Scale{
			Nodes: 4, InputSize: 64 * units.MiB, BlockSize: 16 * units.MiB, Reducers: 8,
		}, 1)
		s.TargetDelays = []units.Duration{100 * units.Microsecond, 1 * units.Millisecond}
		s.Execute()
		sharedSweep = s
	}
	return sharedSweep
}

func TestRenderedFiguresContainAllSeries(t *testing.T) {
	s := tinySweep(t)
	for _, m := range []figures.Metric{figures.MetricRuntime, figures.MetricThroughput, figures.MetricLatency} {
		for _, buf := range []cluster.BufferDepth{cluster.Shallow, cluster.Deep} {
			out := figures.RenderFigure(s, m, buf, "x")
			for _, label := range figures.SeriesOrder {
				if !strings.Contains(out, label) {
					t.Errorf("figure %v/%v missing series %q", m, buf, label)
				}
			}
			if !strings.Contains(out, "100µs") || !strings.Contains(out, "1ms") {
				t.Errorf("figure %v/%v missing x-axis labels:\n%s", m, buf, out)
			}
		}
	}
}

func TestDeepFiguresCarryDashedReference(t *testing.T) {
	s := tinySweep(t)
	r := figures.RenderFigure(s, figures.MetricRuntime, cluster.Deep, "2b")
	if !strings.Contains(r, "dashed") {
		t.Error("deep runtime figure missing the droptail-deep dashed reference")
	}
	l := figures.RenderFigure(s, figures.MetricLatency, cluster.Deep, "4b")
	if !strings.Contains(l, "droptail/shallow latency") {
		t.Error("deep latency figure missing the shallow-droptail reference")
	}
	sh := figures.RenderFigure(s, figures.MetricRuntime, cluster.Shallow, "2a")
	if strings.Contains(sh, "dashed") {
		t.Error("shallow figure should not carry the deep reference line")
	}
}

func TestHeadlineComputation(t *testing.T) {
	s := tinySweep(t)
	h := figures.Headline(s, 0)
	if h.ThroughputGain <= 0 {
		t.Error("throughput gain not computed")
	}
	if h.LatencyReduction <= -1 || h.LatencyReduction >= 1 {
		t.Errorf("latency reduction %.2f out of plausible range", h.LatencyReduction)
	}
	if h.ShallowReachesDeep <= 0 {
		t.Error("shallow-vs-deep ratio not computed")
	}
}

func TestFigure1SnapshotShowsComposition(t *testing.T) {
	snap := figures.Figure1(experiment.Config{
		Scale: experiment.Scale{
			Nodes: 4, InputSize: 64 * units.MiB, BlockSize: 16 * units.MiB, Reducers: 8,
		},
		TargetDelay: 100 * units.Microsecond,
		Seed:        1,
	}, 200*units.Microsecond)

	if snap.Samples == 0 {
		t.Fatal("no queue samples taken")
	}
	if snap.MeanDepth <= 0 || snap.MaxDepth < snap.MeanDepth {
		t.Errorf("depth stats malformed: mean=%.1f max=%.1f", snap.MeanDepth, snap.MaxDepth)
	}
	// The paper's Figure 1 story: the queue is dominated by ECT data.
	if snap.MeanECTShare < 0.5 {
		t.Errorf("ECT share = %.2f, want the queue dominated by ECT data", snap.MeanECTShare)
	}
	if snap.MeanECTShare+snap.MeanACKShare > 1.0001 {
		t.Error("composition shares exceed 100%")
	}
	// And the drops hit the ACKs.
	if snap.AckDrops == 0 {
		t.Error("no ACK drops in the misbehaving configuration")
	}
	if snap.AckDropShare < 0.5 {
		t.Errorf("ACK drop share %.2f, want dominant", snap.AckDropShare)
	}
	out := snap.Render()
	for _, want := range []string{"Fig. 1", "ECT data", "ACK"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNormalizationDirections(t *testing.T) {
	s := tinySweep(t)
	// SimpleMark at the aggressive threshold should beat droptail-shallow
	// on throughput (normalized > 1) and on latency (normalized < 1).
	sm := s.Series[cluster.Shallow]["ecn-simplemark"][0]
	if got := s.NormalizedThroughput(sm); got < 1 {
		t.Errorf("simplemark normalized throughput = %.3f, want >= 1", got)
	}
	if got := s.NormalizedLatency(sm); got >= 1 {
		t.Errorf("simplemark normalized latency = %.3f, want < 1", got)
	}
}
