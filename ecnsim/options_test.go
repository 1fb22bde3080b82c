package ecnsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/tcp"
)

func TestNewClusterDefaults(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.nodes != 16 || c.queue != DropTail || c.buffer != Shallow {
		t.Errorf("defaults: nodes=%d queue=%v buffer=%v", c.nodes, c.queue, c.buffer)
	}
	if c.transport != TCP {
		t.Errorf("DropTail default transport = %v, want TCP", c.transport)
	}
	if c.Label() != "droptail" {
		t.Errorf("Label = %q", c.Label())
	}
}

// TestEveryTCPVariantIsReachable fails on a tcp.Variant that no
// TransportKind lowers to: no run could select it. It walks both
// enumerations until String falls back to the numbered form.
func TestEveryTCPVariantIsReachable(t *testing.T) {
	lowered := map[tcp.Variant]bool{}
	for k := 0; k < 256 && TransportKind(k).String() != fmt.Sprintf("transport(%d)", k); k++ {
		lowered[TransportKind(k).internal()] = true
	}
	for v := 0; v < 256 && tcp.Variant(v).String() != fmt.Sprintf("variant(%d)", v); v++ {
		if !lowered[tcp.Variant(v)] {
			t.Errorf("tcp variant %v (%d): no TransportKind lowers to it", tcp.Variant(v), v)
		}
	}
}

func TestTransportAutoFollowsQueue(t *testing.T) {
	c, err := NewCluster(Queue(RED), TargetDelay(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if c.transport != TCPECN {
		t.Errorf("RED default transport = %v, want TCPECN", c.transport)
	}
	c, err = NewCluster(Queue(RED), Transport(DCTCP), TargetDelay(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if c.transport != DCTCP {
		t.Errorf("explicit transport overridden: %v", c.transport)
	}
}

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"too few nodes", []Option{Nodes(1)}, "at least 2 nodes"},
		{"negative racks", []Option{Racks(-1)}, "non-negative"},
		{"zero target delay", []Option{TargetDelay(0)}, "must be positive"},
		{"zero input", []Option{InputSize(0)}, "must be positive"},
		{"negative block", []Option{BlockSize(-1)}, "non-negative"},
		{"zero reducers", []Option{Reducers(0)}, "at least 1"},
		{"zero link rate", []Option{LinkRate(0)}, "must be positive"},
		{"negative link delay", []Option{LinkDelay(-time.Microsecond)}, "must be positive"},
		{"zero link delay", []Option{LinkDelay(0)}, "must be positive"},
		{"negative minRTO", []Option{MinRTO(-time.Millisecond)}, "non-negative"},
		{"zero flow size", []Option{FlowSize(0)}, "must be positive"},
		{"zero rpc interval", []Option{RPCInterval(0)}, "must be positive"},
		{"unknown queue", []Option{Queue(QueueKind(99))}, "unknown queue"},
		{"unknown protect", []Option{Protect(ProtectMode(99))}, "unknown protection"},
		{"unknown transport", []Option{Transport(TransportKind(99))}, "unknown transport"},
		{"unknown buffer", []Option{Buffer(BufferDepth(99))}, "unknown buffer"},
		{"nil option", []Option{nil}, "nil option"},
		{"protection on droptail", []Option{Protect(ACKSYN)}, "requires an AQM queue"},
		{"protection on simplemark",
			[]Option{Queue(SimpleMark), Protect(ACKSYN), TargetDelay(100 * time.Microsecond)},
			"requires an AQM queue"},
		{"block exceeds input",
			[]Option{InputSize(1 << 20), BlockSize(64 << 20)}, "exceeds input size"},
		{"senders need nodes", []Option{Nodes(4), Senders(4)}, "at least 5 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(tc.opts...)
			if err == nil {
				t.Fatalf("NewCluster(%s) succeeded, want error containing %q", tc.name, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLabels(t *testing.T) {
	cases := []struct {
		opts []Option
		want string
	}{
		{nil, "droptail"},
		{[]Option{Queue(RED), TargetDelay(time.Millisecond)}, "ecn-default"},
		{[]Option{Queue(RED), Protect(ACKSYN), TargetDelay(time.Millisecond)}, "ecn-ack+syn"},
		{[]Option{Queue(RED), Protect(ECE), Transport(DCTCP), TargetDelay(time.Millisecond)}, "dctcp-ece-bit"},
		{[]Option{Queue(SimpleMark), Transport(DCTCP), TargetDelay(time.Millisecond)}, "dctcp-simplemark"},
		{[]Option{Queue(CoDel), Protect(ACKSYN), TargetDelay(time.Millisecond)}, "codel-ack+syn"},
		{[]Option{Queue(PIE), TargetDelay(time.Millisecond)}, "pie-default"},
		{[]Option{Queue(CoDel), Transport(DCTCP), TargetDelay(time.Millisecond)}, "codel-dctcp-default"},
		{[]Option{Queue(PIE), Transport(TCP), Protect(ACKSYN), TargetDelay(time.Millisecond)}, "pie-tcp-ack+syn"},
	}
	for _, tc := range cases {
		c, err := NewCluster(tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if got := c.Label(); got != tc.want {
			t.Errorf("Label = %q, want %q", got, tc.want)
		}
	}
}

func TestParsers(t *testing.T) {
	if q, err := ParseQueue("RED"); err != nil || q != RED {
		t.Errorf("ParseQueue(RED) = %v, %v", q, err)
	}
	if _, err := ParseQueue("fifo"); err == nil {
		t.Error("ParseQueue(fifo) succeeded")
	}
	if m, err := ParseProtect("ack+syn"); err != nil || m != ACKSYN {
		t.Errorf("ParseProtect(ack+syn) = %v, %v", m, err)
	}
	if _, err := ParseProtect("everything"); err == nil {
		t.Error("ParseProtect(everything) succeeded")
	}
	if tr, err := ParseTransport("dctcp"); err != nil || tr != DCTCP {
		t.Errorf("ParseTransport(dctcp) = %v, %v", tr, err)
	}
	if _, err := ParseTransport("udp"); err == nil {
		t.Error("ParseTransport(udp) succeeded")
	}
	if b, err := ParseBuffer("deep"); err != nil || b != Deep {
		t.Errorf("ParseBuffer(deep) = %v, %v", b, err)
	}
	if _, err := ParseBuffer("bottomless"); err == nil {
		t.Error("ParseBuffer(bottomless) succeeded")
	}
	if n, err := ParseSize("64MiB"); err != nil || n != 64<<20 {
		t.Errorf("ParseSize(64MiB) = %d, %v", n, err)
	}
	if _, err := ParseSize("sixty-four"); err == nil {
		t.Error("ParseSize(sixty-four) succeeded")
	}
	// Round-trips through the String forms.
	for _, q := range []QueueKind{DropTail, RED, SimpleMark, CoDel, PIE} {
		got, err := ParseQueue(q.String())
		if err != nil || got != q {
			t.Errorf("queue round-trip %v -> %v, %v", q, got, err)
		}
	}
	for _, m := range []ProtectMode{NoProtection, ECE, ACKSYN} {
		got, err := ParseProtect(m.String())
		if err != nil || got != m {
			t.Errorf("protect round-trip %v -> %v, %v", m, got, err)
		}
	}
	for _, tr := range []TransportKind{TCP, TCPECN, DCTCP} {
		got, err := ParseTransport(tr.String())
		if err != nil || got != tr {
			t.Errorf("transport round-trip %v -> %v, %v", tr, got, err)
		}
	}
}

func TestFlagSetOptions(t *testing.T) {
	fl := NewFlagBinder(FlagsQueue | FlagsBuffer | FlagsWorkload | FlagsFabric | FlagsSeed)
	fl.Queue = "red"
	fl.Mode = "ack+syn"
	fl.Transport = "dctcp"
	fl.BufferStr = "deep"
	fl.Target = 100 * time.Microsecond
	fl.Nodes = 8
	fl.Input = "256MiB"
	fl.Block = ""
	fl.Reducers = 16
	opts, err := fl.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if c.Label() != "dctcp-ack+syn" || c.buffer != Deep || c.nodes != 8 {
		t.Errorf("resolved cluster %v", c)
	}
	if c.blockSize != c.inputSize/int64(c.nodes) {
		t.Errorf("auto block size = %d", c.blockSize)
	}

	fl.Queue = "fifo"
	if _, err := fl.Options(); err == nil {
		t.Error("bad -queue accepted")
	}
}

func TestBlockSizeAuto(t *testing.T) {
	c, err := NewCluster(Nodes(8), InputSize(64<<20), BlockSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.blockSize != 8<<20 {
		t.Errorf("auto block = %d, want %d", c.blockSize, 8<<20)
	}
}
