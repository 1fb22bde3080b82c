package ecnsim

import (
	"bytes"
	"context"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTenantScenariosRegistered(t *testing.T) {
	for _, want := range []string{"multijob", "tenantmix"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q not registered (have %v)", want, Scenarios())
		}
		if Describe(want) == "" {
			t.Errorf("scenario %q has no description", want)
		}
	}
}

// tenantOpts is the CI-sized tenant configuration shared by the tests.
func tenantOpts(extra ...Option) []Option {
	return append([]Option{
		Nodes(4),
		InputSize(32 << 20),
		BlockSize(8 << 20),
		Reducers(4),
		TargetDelay(500 * time.Microsecond),
		Warmup(100 * time.Millisecond),
		Measure(1 * time.Second),
		MeasureWindow(250 * time.Millisecond),
		Seed(1),
	}, extra...)
}

// TestTenantDeterministicAcrossWorkers is the acceptance pin: multijob and
// tenantmix through Runner pools of 1, 4 and 8 workers (with seed
// replications) must produce bit-identical ResultSets.
func TestTenantDeterministicAcrossWorkers(t *testing.T) {
	jobs := func() []Job {
		return []Job{
			{Scenario: mustLookup(t, "multijob"), Cluster: mustCluster(t, tenantOpts(Queue(RED), Protect(ACKSYN))...)},
			{Scenario: mustLookup(t, "tenantmix"), Cluster: mustCluster(t, tenantOpts(FairShare(true))...)},
		}
	}
	run := func(workers int) *ResultSet {
		r := &Runner{Workers: workers, Replications: 2}
		rs, err := r.Run(context.Background(), jobs()...)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	sets := map[int]*ResultSet{1: run(1), 4: run(4), 8: run(8)}
	for _, workers := range []int{4, 8} {
		if !reflect.DeepEqual(sets[1], sets[workers]) {
			t.Fatalf("1-worker and %d-worker runs diverged", workers)
		}
		var a, b bytes.Buffer
		if err := sets[1].WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := sets[workers].WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("marshalled JSON differs between 1 and %d workers", workers)
		}
	}
	rows := sets[1].Results
	if len(rows) != 5 { // multijob's two policies + tenantmix's three setups
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if !strings.HasSuffix(rows[0].Label, "/fifo") || !strings.HasSuffix(rows[1].Label, "/fair") {
		t.Errorf("multijob labels = %q, %q — want .../fifo and .../fair", rows[0].Label, rows[1].Label)
	}
	for _, r := range rows {
		if r.Value(KeyJobsSubmitted) == 0 {
			t.Errorf("%s/%s: no jobs submitted", r.Scenario, r.Label)
		}
		if r.Value(KeyDrained) != 1 {
			t.Errorf("%s/%s: run did not drain", r.Scenario, r.Label)
		}
	}
}

// TestTenantMixDistinguishesModes pins the acceptance criterion: the
// per-window RPC P99 series must distinguish protection modes. At a tight
// marking threshold the default mode's ACK drops also starve the batch
// tier, so its throughput collapses relative to ack+syn — both signals are
// asserted.
func TestTenantMixDistinguishesModes(t *testing.T) {
	rs, err := RunScenario(context.Background(), "tenantmix",
		TestScale(), TargetDelay(100*time.Microsecond), Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Result{}
	for _, r := range rs.Results {
		byLabel[r.Label] = r
	}
	def, ok := byLabel["ecn-default"]
	if !ok {
		t.Fatalf("no ecn-default row in %v", rs.Results)
	}
	ack, ok := byLabel["ecn-ack+syn"]
	if !ok {
		t.Fatalf("no ecn-ack+syn row in %v", rs.Results)
	}
	windows := 0
	differ := false
	for i := 0; ; i++ {
		key := KeyRPCWindowP99(i)
		if _, present := def.Values[key]; !present {
			break
		}
		windows++
		if def.Value(key) != ack.Value(key) {
			differ = true
		}
	}
	if windows < 2 {
		t.Fatalf("only %d RPC P99 windows reported", windows)
	}
	if !differ {
		t.Error("per-window RPC P99 series identical across protection modes")
	}
	// The untold-truth signal: default mode's ACK drops starve the batch
	// tier while ack+syn keeps throughput.
	if def.Value(KeyThroughput) >= 0.5*ack.Value(KeyThroughput) {
		t.Errorf("default-mode throughput %g not collapsed vs ack+syn %g",
			def.Value(KeyThroughput), ack.Value(KeyThroughput))
	}
	if def.Value(KeyAckDropShare) < 0.5 {
		t.Errorf("default-mode ACK drop share %g, expected the drops to hit ACKs",
			def.Value(KeyAckDropShare))
	}
}

// TestMultiJobPoliciesDiverge pins that the two multijob rows really come
// from different schedulers at the default (contended) scale.
func TestMultiJobPoliciesDiverge(t *testing.T) {
	rs, err := RunScenario(context.Background(), "multijob",
		TestScale(), Queue(RED), Protect(ACKSYN), Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 2 {
		t.Fatalf("rows = %d, want 2", len(rs.Results))
	}
	fifo, fair := rs.Results[0], rs.Results[1]
	if fifo.Value(KeyJobsSubmitted) != fair.Value(KeyJobsSubmitted) {
		t.Fatalf("policies saw different arrival streams")
	}
	if fifo.Value(KeyJobP50) == fair.Value(KeyJobP50) && fifo.Value(KeyJobMean) == fair.Value(KeyJobMean) {
		t.Error("FIFO and fair rows have identical job latency statistics")
	}
}

func TestTenantOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative jobs", []Option{JobArrivals(-1)}},
		{"zero arrival mean", []Option{Arrivals(PoissonArrivals, 0)}},
		{"bad arrival kind", []Option{Arrivals(ArrivalKind(9), time.Second)}},
		{"negative clients", []Option{RPCClients(-1)}},
		{"huge fleet", []Option{RPCClients(2000)}},
		{"zero rpc sizes", []Option{RPCSizes(0, 4096)}},
		{"negative warmup", []Option{Warmup(-time.Second)}},
		{"zero measure", []Option{Measure(0)}},
		{"zero window", []Option{MeasureWindow(0)}},
		{"window beyond measure", []Option{Measure(time.Second), MeasureWindow(2 * time.Second)}},
	}
	for _, c := range cases {
		if _, err := NewCluster(c.opts...); err == nil {
			t.Errorf("%s: expected NewCluster error", c.name)
		}
	}
	if _, err := NewCluster(tenantOpts(JobArrivals(3), Arrivals(FixedArrivals, 100*time.Millisecond),
		FairShare(true), RPCClients(2), RPCSizes(256, 8192), HeavyTailRPC(true))...); err != nil {
		t.Errorf("valid tenant options rejected: %v", err)
	}

	// A Measure below the default window must not demand an explicit
	// MeasureWindow: the unset window follows the phase down.
	c, err := NewCluster(Measure(200 * time.Millisecond))
	if err != nil {
		t.Fatalf("short Measure without MeasureWindow rejected: %v", err)
	}
	if w := c.workloadConfig(); w.Window != 200*time.Millisecond {
		t.Errorf("default window = %v, want clamped to the 200ms measure", w.Window)
	}
	// But an explicitly chosen window that exceeds Measure still errors.
	if _, err := NewCluster(Measure(time.Second), MeasureWindow(2*time.Second)); err == nil {
		t.Error("explicit window beyond measure accepted")
	}
}

func TestParseArrival(t *testing.T) {
	for _, c := range []struct {
		in   string
		kind ArrivalKind
		mean time.Duration
		err  bool
	}{
		{"poisson:400ms", PoissonArrivals, 400 * time.Millisecond, false},
		{"fixed:250ms", FixedArrivals, 250 * time.Millisecond, false},
		{"poisson", PoissonArrivals, 0, false},
		{"FIXED:1s", FixedArrivals, time.Second, false},
		{"burst:1s", 0, 0, true},
		{"poisson:nope", 0, 0, true},
		{"poisson:-5ms", 0, 0, true},
	} {
		kind, mean, err := ParseArrival(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseArrival(%q) error = %v, want error=%v", c.in, err, c.err)
			continue
		}
		if err == nil && (kind != c.kind || mean != c.mean) {
			t.Errorf("ParseArrival(%q) = %v/%v, want %v/%v", c.in, kind, mean, c.kind, c.mean)
		}
	}
}

func TestTenantFlags(t *testing.T) {
	f := NewFlagBinder(FlagsTenant)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Bind(fs)
	if err := fs.Parse([]string{"-jobs", "6", "-arrival", "fixed:100ms", "-rpc-clients", "8"}); err != nil {
		t.Fatal(err)
	}
	opts, err := f.TenantOptions()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(append(tenantOpts(), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	w := c.workloadConfig()
	if w.MaxJobs != 6 || w.MeanInterarrival != 100*time.Millisecond || w.RPCClients != 8 {
		t.Errorf("flags did not resolve: %+v", w)
	}

	// Unset flags contribute nothing (scenario defaults stay in charge).
	f2 := NewFlagBinder(FlagsTenant)
	opts2, err := f2.TenantOptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts2) != 0 {
		t.Errorf("unset tenant flags produced %d options", len(opts2))
	}

	// A malformed -arrival surfaces from TenantOptions.
	f3 := NewFlagBinder(FlagsTenant)
	f3.Arrival = "sometimes"
	if _, err := f3.TenantOptions(); err == nil {
		t.Error("malformed -arrival accepted")
	}
}

// TestSweepCarriesWorkload pins the grid/archive threading: JobArrivals
// switches the sweep onto the workload engine, ScaleOptions round-trips the
// knobs, and the JSON archive preserves them.
func TestSweepCarriesWorkload(t *testing.T) {
	s, err := NewSweep(tenantOpts(JobArrivals(2), FairShare(true), RPCClients(3))...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSweepJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSweep(back.ScaleOptions()...)
	if err != nil {
		t.Fatalf("ScaleOptions round trip: %v", err)
	}
	if s2.inner.Workload == nil {
		t.Fatal("workload lost through archive + ScaleOptions")
	}
	if !reflect.DeepEqual(*s2.inner.Workload, *s.inner.Workload) {
		t.Fatalf("workload diverged:\n%+v\n%+v", *s2.inner.Workload, *s.inner.Workload)
	}

	// Without tenancy options the grid stays single-job.
	s3, err := NewSweep(tenantOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if s3.inner.Workload != nil {
		t.Error("workload attached without tenancy options")
	}

	// An RPC fleet alone (open arrivals, no job cap) also enables the
	// engine, and the uncapped workload round-trips through the archive.
	s4, err := NewSweep(tenantOpts(RPCClients(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if s4.inner.Workload == nil {
		t.Fatal("workload not attached for an RPC-only tenancy")
	}
	buf.Reset()
	if err := s4.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back4, err := ReadSweepJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := NewSweep(back4.ScaleOptions()...)
	if err != nil {
		t.Fatalf("RPC-only ScaleOptions round trip: %v", err)
	}
	if s5.inner.Workload == nil || !reflect.DeepEqual(*s5.inner.Workload, *s4.inner.Workload) {
		t.Fatalf("RPC-only workload diverged through archive + ScaleOptions")
	}
}
