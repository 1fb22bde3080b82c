package simnet

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParseGoroutines pins the traceback reader on the header and
// created-by shapes the runtime prints — wait durations, the GC scan mark,
// thread locking, goroutines without a recorded creator — and on which
// waits count as blocked: a lock a tenant takes does, a lock sync.Pool or
// sync.Once takes for itself and a runtime semaphore do not. Lock waits
// appear in both frame layouts: Go 1.23's (sync.runtime_SemacquireMutex
// first) and Go 1.24's (sync.Mutex wraps internal/sync.Mutex).
func TestParseGoroutines(t *testing.T) {
	dump := `goroutine 7 [running]:
repro/internal/simnet.snapshotGoroutines({0xc000100000, 0x10000, 0x10000})
	/src/repro/internal/simnet/snapshot.go:22 +0x25

goroutine 1 [chan receive, 3 minutes]:
testing.(*T).Run(0xc000003a40, {0x6a1b2c, 0x9}, 0x6b8d10)
	/go/src/testing/testing.go:1751 +0x3ab
main.main()
	_testmain.go:45 +0x9b

goroutine 18 [select (scan)]:
net/http.(*persistConn).writeLoop(0xc0001b2000)
	/go/src/net/http/transport.go:2590 +0xe7
created by net/http.(*Transport).dialConn in goroutine 17
	/go/src/net/http/transport.go:1947 +0x1785

goroutine 19 [runnable, locked to thread]:
repro/internal/simnet.(*gate).spawn.func1()
	/src/repro/internal/simnet/gate.go:150 +0x4a
created by repro/internal/simnet.(*gate).spawn in goroutine 7
	/src/repro/internal/simnet/gate.go:147 +0x6b

goroutine 20 [sync.Mutex.Lock]:
sync.runtime_SemacquireMutex(0xc0000a8068?, 0x0?, 0x1?)
	/go/src/runtime/sema.go:95 +0x25
sync.(*Mutex).lockSlow(0xc0000a8064)
	/go/src/sync/mutex.go:173 +0x15d
sync.(*Mutex).Lock(...)
	/go/src/sync/mutex.go:92
net/http.(*body).Close(0xc0000a8000)
	/go/src/net/http/transfer.go:1002 +0x3c
created by main.f in goroutine 19
	/src/main.go:9 +0x1d

goroutine 22 [sync.Mutex.Lock]:
sync.runtime_SemacquireMutex(0xc0000a8068?, 0x0?, 0x1?)
	/go/src/runtime/sema.go:95 +0x25
sync.(*Mutex).lockSlow(0x5bc350)
	/go/src/sync/mutex.go:173 +0x15d
sync.(*Mutex).Lock(...)
	/go/src/sync/mutex.go:92
sync.(*Pool).pinSlow(0x5bc100)
	/go/src/sync/pool.go:241 +0x5e
sync.(*Pool).Get(0x5bc100)
	/go/src/sync/pool.go:144 +0x2e
created by main.f in goroutine 19
	/src/main.go:9 +0x1d

goroutine 24 [sync.Mutex.Lock]:
internal/sync.runtime_SemacquireMutex(0x0?, 0x0?, 0x0?)
	/go/src/runtime/sema.go:95 +0x25
internal/sync.(*Mutex).lockSlow(0xc000082044)
	/go/src/internal/sync/mutex.go:149 +0x15d
internal/sync.(*Mutex).Lock(...)
	/go/src/internal/sync/mutex.go:70
sync.(*Mutex).Lock(...)
	/go/src/sync/mutex.go:46
sync.(*Once).doSlow(0x0?, 0x4be4d8)
	/go/src/sync/once.go:74 +0x48
sync.(*Once).Do(...)
	/go/src/sync/once.go:69
created by main.f in goroutine 19
	/src/main.go:9 +0x1d

goroutine 25 [sync.Mutex.Lock]:
internal/sync.runtime_SemacquireMutex(0x0?, 0x0?, 0x0?)
	/go/src/runtime/sema.go:95 +0x25
internal/sync.(*Mutex).lockSlow(0x57f050)
	/go/src/internal/sync/mutex.go:149 +0x15d
internal/sync.(*Mutex).Lock(...)
	/go/src/internal/sync/mutex.go:70
sync.(*Mutex).Lock(...)
	/go/src/sync/mutex.go:46
main.g()
	/src/main.go:21 +0x34
created by main.f in goroutine 19
	/src/main.go:9 +0x1d

goroutine 23 [semacquire]:
bytes.growSlice({0xc000300000, 0x1000, 0x1000}, 0x1000)
	/go/src/bytes/buffer.go:249 +0x8e
created by main.f in goroutine 19
	/src/main.go:9 +0x1d

goroutine 21 [sleep]:
time.Sleep(0x3b9aca00)
	/go/src/runtime/time.go:338 +0x165
created by os/signal.Notify.func1.1
	/go/src/os/signal/signal.go:151 +0x1f
`
	got := parseGoroutines(nil, []byte(dump))
	want := []gstate{
		{id: 7},
		{id: 1, blocked: true},
		{id: 18, parent: 17, blocked: true},
		{id: 19, parent: 7},
		{id: 20, parent: 19, blocked: true},
		{id: 22, parent: 19},
		{id: 24, parent: 19},
		{id: 25, parent: 19, blocked: true},
		{id: 23, parent: 19},
		{id: 21},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
}

// TestSnapshotSeesCaller checks the reader against a live traceback: the
// calling goroutine heads the snapshot, under its own id, as running.
func TestSnapshotSeesCaller(t *testing.T) {
	gs := parseGoroutines(nil, snapshotGoroutines(nil))
	if len(gs) == 0 {
		t.Fatal("snapshot parsed to no goroutines")
	}
	if id := curGoroutineID(); id == 0 || gs[0].id != id || gs[0].blocked {
		t.Fatalf("snapshot head = %+v, want running goroutine %d", gs[0], id)
	}
}

// TestSnapshotSyncOwnLock reads a live lock wait, so it holds whatever
// frame names the running Go version prints: one goroutine blocks inside
// once.Do, a second calls once.Do and waits for Once's own mutex. The
// second must read as not blocked (its wait ends when the first's does,
// and the first may belong to another simulation); the first, waiting on
// a channel, as blocked.
func TestSnapshotSyncOwnLock(t *testing.T) {
	var once sync.Once
	var holder, waiter atomic.Uint64
	inDo := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holder.Store(curGoroutineID())
		once.Do(func() {
			close(inDo)
			<-release
		})
	}()
	<-inDo
	go func() {
		waiter.Store(curGoroutineID())
		once.Do(func() {})
		close(done)
	}()
	defer func() {
		close(release)
		<-done
	}()

	var dump []byte
	for i := 0; ; i++ {
		dump = snapshotGoroutines(dump)
		if w := waiter.Load(); w != 0 && statusOf(dump, w) == "sync.Mutex.Lock" {
			break
		}
		if i == 5000 {
			t.Fatalf("second once.Do caller never waited on Once's mutex:\n%s", dump)
		}
		time.Sleep(time.Millisecond)
	}
	byID := make(map[uint64]gstate)
	for _, s := range parseGoroutines(nil, dump) {
		byID[s.id] = s
	}
	if s := byID[waiter.Load()]; s.blocked {
		t.Errorf("goroutine waiting on Once's own mutex read as blocked:\n%s", dump)
	}
	if s := byID[holder.Load()]; !s.blocked {
		t.Errorf("goroutine blocked on a channel inside once.Do read as not blocked:\n%s", dump)
	}
}

// statusOf returns the wait status of goroutine id in dump, or "" if the
// dump does not list it.
func statusOf(dump []byte, id uint64) string {
	for _, line := range bytes.Split(dump, []byte{'\n'}) {
		if bytes.HasPrefix(line, headerPrefix) {
			if gid, status := parseHeader(line); gid == id {
				return string(status)
			}
		}
	}
	return ""
}

// busy burns CPU without touching the gate: a tenant in it is running or
// runnable, never blocked, for a few milliseconds of wall time.
func busy() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<23; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var busySink atomic.Uint64

// TestQuiesceWaitsForComputingTenant is the settle's soundness property at
// the gate: a tenant that computes before its next operation holds the
// settle until the operation is published, however many Ps the scheduler
// has to run it on. A yield count alone returns early here once a second P
// runs the tenant.
func TestQuiesceWaitsForComputingTenant(t *testing.T) {
	g := newGate()
	g.spawn(func() {
		busySink.Add(busy())
		g.do(&op{kind: opSleep})
	})
	g.quiesce()
	if !g.parked() {
		t.Fatal("settled while a tenant was still computing")
	}
	finish(t, g)
}

// TestQuiesceWaitsForDescendant covers goroutines the gate never spawned:
// library code a tenant calls may start goroutines of its own (net/http
// does, per connection). Here the tenant starts one through
// context.AfterFunc and exits at once; the child, computing, must still
// hold the settle — the snapshot adopts it through its creator's id.
func TestQuiesceWaitsForDescendant(t *testing.T) {
	g := newGate()
	g.spawn(func() {
		ctx, cancel := context.WithCancel(context.Background())
		context.AfterFunc(ctx, func() {
			busySink.Add(busy())
			g.do(&op{kind: opSleep})
		})
		cancel()
	})
	g.quiesce()
	if !g.parked() {
		t.Fatal("settled while a tenant's child was still computing")
	}
	finish(t, g)
}

// finish completes every parked op, settles, and checks that the gate has
// forgotten every tenant once all of them have exited.
func finish(t *testing.T, g *gate) {
	t.Helper()
	for _, o := range g.drain() {
		g.wake(o)
	}
	g.quiesce()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.tenants) != 0 {
		t.Fatalf("gate still tracks %d tenants after all exited", len(g.tenants))
	}
}
