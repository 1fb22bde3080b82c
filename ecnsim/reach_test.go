package ecnsim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
)

// reachRun runs one configuration and returns its fingerprint and a byte
// image of what the run produced.
type reachRun func(t *testing.T, opts ...Option) (fingerprint string, out []byte)

// scenarioRows runs a registered scenario; its output is the JSON of its
// result rows.
func scenarioRows(name string) reachRun {
	return func(t *testing.T, opts ...Option) (string, []byte) {
		t.Helper()
		c := mustCluster(t, opts...)
		rows, err := mustLookup(t, name).Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return c.Fingerprint(), out
	}
}

// figure1Values runs Figure1; its output is the JSON of the snapshot values.
func figure1Values(t *testing.T, opts ...Option) (string, []byte) {
	t.Helper()
	snap, err := Figure1(200*time.Microsecond, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(snap.Values())
	if err != nil {
		t.Fatal(err)
	}
	return mustCluster(t, opts...).Fingerprint(), out
}

// dropTrace runs WriteDropTrace; its output is the trace itself.
func dropTrace(t *testing.T, opts ...Option) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDropTrace(&buf, 50, opts...); err != nil {
		t.Fatal(err)
	}
	return mustCluster(t, opts...).Fingerprint(), buf.Bytes()
}

// TestOptionsReachTheRun: every case adds one option to a base
// configuration, and both the fingerprint and what the run produces must
// move. An option that moves the cache key but not the run corrupts exactly
// the comparisons the scenarios exist to make. Each case here once moved
// the key alone, because a harness built its cluster by hand. MinRTO is
// absent on purpose: these runs hit no RTO, so its rows stay put even when
// it reaches the wire.
func TestOptionsReachTheRun(t *testing.T) {
	red := func(target time.Duration, extra ...Option) []Option {
		return append([]Option{Queue(RED), TargetDelay(target), Seed(1)}, extra...)
	}
	type base struct {
		run  reachRun
		opts []Option
	}
	bases := map[string]base{
		"terasort":                 {scenarioRows("terasort"), red(200*time.Microsecond, TestScale())},
		"mixed":                    {scenarioRows("mixed"), red(100*time.Microsecond, TestScale())},
		"mixed-leafspine":          {scenarioRows("mixed"), red(100*time.Microsecond, TestScale(), Racks(2), Spines(2))},
		"incast":                   {scenarioRows("incast"), red(200*time.Microsecond, Nodes(9), FlowSize(1<<20))},
		"Figure1-200us":            {figure1Values, red(200*time.Microsecond, TestScale())},
		"Figure1-100us":            {figure1Values, red(100*time.Microsecond, TestScale())},
		"WriteDropTrace":           {dropTrace, red(100*time.Microsecond, TestScale())},
		"WriteDropTrace-leafspine": {dropTrace, red(100*time.Microsecond, TestScale(), Racks(2), Spines(2))},
	}
	cases := []struct {
		base, name string
		option     Option
	}{
		{"terasort", "LinkRate", LinkRate(1e9)},
		{"terasort", "LinkDelay", LinkDelay(50 * time.Microsecond)},
		{"mixed", "ByteMode", ByteMode(true)},
		{"mixed", "Instantaneous", Instantaneous(true)},
		{"mixed-leafspine", "Notify", Notify()},
		{"mixed-leafspine", "Hybrid", Hybrid()},
		{"incast", "ByteMode", ByteMode(true)},
		{"incast", "Instantaneous", Instantaneous(true)},
		{"incast", "Notify", Notify()},
		{"Figure1-200us", "Racks", Racks(2)},
		{"Figure1-100us", "DisableDelAck", DisableDelAck(true)},
		{"WriteDropTrace", "DisableDelAck", DisableDelAck(true)},
		{"WriteDropTrace", "Notify", Notify()},
		{"WriteDropTrace-leafspine", "Notify", Notify()},
	}
	type output struct {
		fp  string
		out []byte
	}
	baselines := make(map[string]output)
	for _, tc := range cases {
		t.Run(tc.base+"/"+tc.name, func(t *testing.T) {
			b := bases[tc.base]
			want, ok := baselines[tc.base]
			if !ok {
				want.fp, want.out = b.run(t, b.opts...)
				baselines[tc.base] = want
			}
			fp, out := b.run(t, append(b.opts[:len(b.opts):len(b.opts)], tc.option)...)
			if fp == want.fp {
				t.Error("the option did not move the fingerprint")
			}
			if bytes.Equal(out, want.out) {
				t.Errorf("the option moved nothing the run produced:\n%s", out)
			}
		})
	}
}

// TestDropTraceKeepsHybridPromotions: the drop tracer observes beside the
// cluster's own observers, so a traced hybrid run of the Figure 1 setup
// executes the same events and promotes the same ports as the untraced run.
func TestDropTraceKeepsHybridPromotions(t *testing.T) {
	opts := []Option{Queue(RED), TargetDelay(100 * time.Microsecond), Seed(1), TestScale(), Racks(4), Spines(2), Hybrid()}
	tr, traced, err := traceDrops(50, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := figures.Figure1Config(mustCluster(t, opts...).experimentConfig())
	plain := experiment.Build(cfg)
	plain.RunJob(cfg.Scale.Terasort())

	if got, want := traced.Fluid.Stats().Promotions, plain.Fluid.Stats().Promotions; got != want || want == 0 {
		t.Errorf("traced run promoted %d ports, untraced %d (want equal and nonzero)", got, want)
	}
	if got, want := traced.Events(), plain.Events(); got != want {
		t.Errorf("traced run executed %d events, untraced %d", got, want)
	}
	if tr.Total() == 0 {
		t.Error("the tracer recorded no drop")
	}
}
