package simnet_test

// The net.Conn conformance suite: every stream, deadline, and close behavior
// the façade promises, driven as real tenant goroutines over a simulated
// star fabric. The tests are stdlib-only and nettest-shaped: each case gets
// a freshly dialed client/server conn pair and asserts one slice of the
// net.Conn contract. All cases must stay green under -race — the gate, not
// luck, is what keeps tenant goroutines and the engine apart.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/units"
)

// harness runs tenant code over a façade-enabled cluster. Tenants start from
// a scheduled setup event; the run loop drives virtual time until the tenant
// body signals completion.
type harness struct {
	c *cluster.Cluster
	n *simnet.Net
}

func newHarness(t *testing.T, mutate ...func(*cluster.Spec)) *harness {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Nodes = 4
	spec.Facade = true
	for _, m := range mutate {
		m(&spec)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	c := cluster.New(spec)
	return &harness{c: c, n: c.Net}
}

// run schedules body as a tenant goroutine at 1ms of virtual time and drives
// the loop until it returns. Body failures surface through t.
func (h *harness) run(t *testing.T, body func(n *simnet.Net)) {
	t.Helper()
	var done atomic.Bool
	h.c.Engine.Schedule(units.Time(units.Millisecond), func() {
		h.n.Go(func() {
			defer done.Store(true)
			body(h.n)
		})
		h.n.Settle()
	})
	out := h.n.Run(done.Load, 0)
	h.n.Shutdown()
	if !done.Load() {
		t.Fatalf("tenant body did not complete (run outcome %v)", out)
	}
}

// pair dials host0 -> host1 and returns both ends. Tenant context.
func pair(t *testing.T, n *simnet.Net) (client, server net.Conn) {
	t.Helper()
	l, err := n.Listen("sim", "host1:80")
	if err != nil {
		t.Fatal(err)
	}
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	n.Go(func() {
		c, err := l.Accept()
		ch <- acc{c, err}
	})
	client, err = n.DialContext(context.Background(), "sim", "host1:80")
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return client, a.c
}

// TestConnConformance is the table: one slice of the net.Conn contract per
// case, each over a fresh conn pair.
func TestConnConformance(t *testing.T) {
	cases := []struct {
		name string
		body func(t *testing.T, n *simnet.Net, client, server net.Conn)
	}{
		{"RoundTrip", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			msg := []byte("hello over the simulated fabric")
			if _, err := client.Write(msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(server, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("server read %q, want %q", got, msg)
			}
		}},

		{"PartialRead", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			// One 10-byte write surfaces through two smaller reads.
			if _, err := client.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			nr, err := server.Read(buf)
			if err != nil || nr != 4 || string(buf[:nr]) != "0123" {
				t.Fatalf("first read = %d %q %v", nr, buf[:nr], err)
			}
			rest := make([]byte, 16)
			nr, err = server.Read(rest)
			if err != nil || string(rest[:nr]) != "456789" {
				t.Fatalf("second read = %d %q %v", nr, rest[:nr], err)
			}
		}},

		{"PartialWriteBackpressure", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			// A write far beyond the stream window completes only as the
			// reader drains — full-write semantics with real backpressure.
			big := make([]byte, 512<<10)
			for i := range big {
				big[i] = byte(i)
			}
			var wrote atomic.Int64
			n.Go(func() {
				nw, err := client.Write(big)
				if err != nil {
					t.Errorf("big write: %v", err)
				}
				wrote.Store(int64(nw))
			})
			got := make([]byte, 0, len(big))
			buf := make([]byte, 8192)
			for len(got) < len(big) {
				nr, err := server.Read(buf)
				if err != nil {
					t.Fatalf("read after %d bytes: %v", len(got), err)
				}
				got = append(got, buf[:nr]...)
			}
			if !bytes.Equal(got, big) {
				t.Fatal("byte stream corrupted across backpressured write")
			}
		}},

		{"DeadlineExpiryWhileBlocked", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			start := n.Now()
			if err := server.SetReadDeadline(start.Add(3 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			_, err := server.Read(make([]byte, 1))
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("blocked read ended with %v, want ErrDeadlineExceeded", err)
			}
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("deadline error %v is not a net.Error timeout", err)
			}
			if waited := n.Now().Sub(start); waited < 3*time.Millisecond {
				t.Fatalf("deadline fired after %v of virtual time, want >= 3ms", waited)
			}
			// A fresh deadline refreshes the conn: data still flows.
			if err := server.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := server.Read(make([]byte, 1)); err != nil {
				t.Fatalf("read after deadline refresh: %v", err)
			}
		}},

		{"DeadlineInPastFailsImmediately", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			if err := server.SetReadDeadline(n.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			before := n.Now()
			_, err := server.Read(make([]byte, 1))
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read = %v, want ErrDeadlineExceeded", err)
			}
			if waited := n.Now().Sub(before); waited != 0 {
				t.Fatalf("past deadline blocked for %v of virtual time", waited)
			}
			// Write deadlines fail the same way.
			if err := client.SetWriteDeadline(n.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("write = %v, want ErrDeadlineExceeded", err)
			}
		}},

		{"WallClockDeadlineInert", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			// Unmodified code sets deadlines derived from time.Now() — decades
			// past the virtual epoch. Those must neither fire nor fail I/O.
			if err := server.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write([]byte("y")); err != nil {
				t.Fatal(err)
			}
			if _, err := server.Read(make([]byte, 1)); err != nil {
				t.Fatalf("read under wall-derived deadline: %v", err)
			}
		}},

		{"CloseWhileReaderBlocked", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			var readErr atomic.Value
			started := make(chan struct{})
			finished := make(chan struct{})
			n.Go(func() {
				close(started)
				_, err := server.Read(make([]byte, 1))
				readErr.Store(err)
				close(finished)
			})
			<-started
			n.Sleep(time.Millisecond) // let the reader park in virtual time
			if err := server.Close(); err != nil {
				t.Fatal(err)
			}
			<-finished
			if err := readErr.Load().(error); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("blocked read ended with %v, want net.ErrClosed", err)
			}
		}},

		{"DoubleClose", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			if err := client.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}
			if err := client.Close(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("second close = %v, want net.ErrClosed", err)
			}
			if _, err := client.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("write after close = %v, want net.ErrClosed", err)
			}
			if _, err := client.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("read after close = %v, want net.ErrClosed", err)
			}
		}},

		{"EOFAfterFIN", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			// Data written before Close must drain completely before EOF —
			// never reordered past it, never truncated by it.
			msg := []byte("last words before the FIN")
			if _, err := client.Write(msg); err != nil {
				t.Fatal(err)
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(server)
			if err != nil {
				t.Fatalf("ReadAll to EOF: %v", err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("drained %q, want %q", got, msg)
			}
			// EOF is sticky.
			if _, err := server.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read past EOF = %v, want io.EOF", err)
			}
		}},

		{"ConcurrentReadWrite", func(t *testing.T, n *simnet.Net, client, server net.Conn) {
			// Full-duplex: one goroutine reads while another writes on the
			// same conn, echoed by the peer. 64 KiB each direction.
			payload := make([]byte, 64<<10)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			n.Go(func() {
				// Echo until the client closes; errors here are expected
				// only at teardown, after the client has all its bytes.
				io.Copy(server, server)
			})
			writeDone := make(chan struct{})
			n.Go(func() {
				defer close(writeDone)
				if _, err := client.Write(payload); err != nil {
					t.Errorf("concurrent write: %v", err)
				}
			})
			got := make([]byte, len(payload))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Fatalf("concurrent read: %v", err)
			}
			<-writeDone
			if !bytes.Equal(got, payload) {
				t.Fatal("echoed bytes diverged from written bytes")
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			h.run(t, func(n *simnet.Net) {
				client, server := pair(t, n)
				defer client.Close()
				defer server.Close()
				tc.body(t, n, client, server)
			})
		})
	}
}

// TestListenerClose pins the accept-queue half of the contract: a parked
// Accept fails with net.ErrClosed, and double Close reports the same.
func TestListenerClose(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(n *simnet.Net) {
		l, err := n.Listen("sim", "host2:9000")
		if err != nil {
			t.Fatal(err)
		}
		acceptErr := make(chan error, 1)
		n.Go(func() {
			_, err := l.Accept()
			acceptErr <- err
		})
		n.Sleep(time.Millisecond)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-acceptErr; !errors.Is(err, net.ErrClosed) {
			t.Errorf("parked Accept ended with %v, want net.ErrClosed", err)
		}
		if err := l.Close(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("double listener Close = %v, want net.ErrClosed", err)
		}
	})
}

// TestDialNoListener: a dial to a port nobody listens on fails in virtual
// time instead of hanging the tenant.
func TestDialNoListener(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(n *simnet.Net) {
		if _, err := n.DialContext(context.Background(), "sim", "host3:4444"); err == nil {
			t.Error("dial to silent port succeeded")
		}
	})
}

// TestNowAtSpawn: a tenant started from a control event sees that event's
// virtual time, even when it reads the clock before the event settles — it
// may run at once on another P. The event here waits for the read on
// purpose, so the order is forced rather than left to the scheduler.
func TestNowAtSpawn(t *testing.T) {
	h := newHarness(t)
	var read atomic.Bool
	var seen atomic.Int64 // virtual time read by the tenant, ns past Epoch
	h.c.Engine.Schedule(units.Time(units.Millisecond), func() {
		h.n.Go(func() {
			seen.Store(int64(h.n.Now().Sub(simnet.Epoch)))
			read.Store(true)
		})
		for !read.Load() {
			runtime.Gosched()
		}
		h.n.Settle()
	})
	h.n.Run(read.Load, 0)
	h.n.Shutdown()
	if got := time.Duration(seen.Load()); got != time.Millisecond {
		t.Fatalf("tenant spawned at 1ms read Now = %v past Epoch", got)
	}
}
