package simnet

import (
	"bytes"
	"runtime"
	"strconv"
)

// gstate is one goroutine of an all-goroutine snapshot: its id, the id of
// the goroutine that started it (0 if the runtime did not record one), and
// whether it was blocked in a wait only another goroutine can end.
type gstate struct {
	id, parent uint64
	blocked    bool
}

// snapshotGoroutines returns the runtime's all-goroutine traceback, reusing
// buf's storage. runtime.Stack stops the world for it, so the states in one
// snapshot form a consistent cut.
func snapshotGoroutines(buf []byte) []byte {
	buf = buf[:cap(buf)]
	if len(buf) == 0 {
		buf = make([]byte, 64<<10)
	}
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// curGoroutineID returns the calling goroutine's id, read from the header
// of its own traceback. A tenant whose id cannot be read would be invisible
// to every snapshot, so an unreadable header is fatal.
func curGoroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, _ := parseHeader(buf[:n])
	if id == 0 {
		panic("simnet: no goroutine id in runtime.Stack header " + strconv.Quote(string(buf[:n])))
	}
	return id
}

var (
	headerPrefix  = []byte("goroutine ")
	createdPrefix = []byte("created by ")
	inGoroutine   = []byte(" in goroutine ")
	syncPrefix    = []byte("sync.")
	// lockFrames are the frames of the lock implementation itself. From Go
	// 1.24 on, sync.Mutex wraps internal/sync.Mutex, whose frames (and
	// internal/sync's own locked structures, which back sync.Map) come first.
	lockFrames = [][]byte{
		[]byte("sync.runtime_Semacquire"), []byte("sync.(*Mutex)."), []byte("sync.(*RWMutex)."),
		[]byte("internal/sync."),
	}
)

// parseGoroutines appends one gstate per goroutine in dump, a runtime.Stack
// traceback: each goroutine opens with a "goroutine N [status]:" header,
// and all but the first goroutines end with "created by F in goroutine P".
//
// A goroutine waiting for a sync.Mutex or RWMutex counts as blocked unless
// the lock is one the sync package takes for itself: the first frame past
// the lock implementation (lockFrames) is another sync function, such as
// Pool.pinSlow, Once.doSlow or a Map method. Those locks guard state the
// whole process shares, so the holder may be a goroutine of another
// simulation, and the wait ends by itself.
func parseGoroutines(out []gstate, dump []byte) []gstate {
	lockWait := false // the current goroutine waits on a lock whose taker is not yet read
	for len(dump) > 0 {
		line, rest, _ := bytes.Cut(dump, []byte{'\n'})
		dump = rest
		switch {
		case bytes.HasPrefix(line, headerPrefix):
			id, status := parseHeader(line)
			blocked, lock := blockedState(status)
			out = append(out, gstate{id: id, blocked: blocked})
			lockWait = lock
		case bytes.HasPrefix(line, createdPrefix) && len(out) > 0:
			if i := bytes.LastIndex(line, inGoroutine); i >= 0 {
				out[len(out)-1].parent = parseUint(line[i+len(inGoroutine):])
			}
		case lockWait && len(line) > 0 && line[0] != '\t' && !hasAnyPrefix(line, lockFrames):
			lockWait = false
			if bytes.HasPrefix(line, syncPrefix) {
				out[len(out)-1].blocked = false
			}
		}
	}
	return out
}

func hasAnyPrefix(b []byte, prefixes [][]byte) bool {
	for _, p := range prefixes {
		if bytes.HasPrefix(b, p) {
			return true
		}
	}
	return false
}

// parseHeader splits a "goroutine N [status, extras]:" line into the id and
// the bare status, with the GC's " (scan)" mark removed.
func parseHeader(line []byte) (id uint64, status []byte) {
	id = parseUint(line[len(headerPrefix):])
	if i := bytes.IndexByte(line, '['); i >= 0 {
		status = line[i+1:]
		if j := bytes.IndexAny(status, ",]"); j >= 0 {
			status = status[:j]
		}
		status = bytes.TrimSuffix(status, []byte(" (scan)"))
	}
	return id, status
}

// parseUint reads the decimal digits at the start of b (0 if there are
// none).
func parseUint(b []byte) uint64 {
	var v uint64
	for i := 0; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	return v
}

// blockedState reports whether a goroutine in this traceback state is
// blocked until some other goroutine acts — on a channel, a select, a
// sync.Mutex or RWMutex (lock), a condition variable or a wait group — and
// whether the wait is on a lock. Every other state ends by itself, so a
// tenant in it may still publish an operation: running, runnable, in a
// syscall, preempted, sleeping on a wall timer, parked on network I/O,
// assisting or waiting for the garbage collector, and "semacquire", which
// is the runtime's own semaphores (stopping the world, starting a GC — a
// snapshot itself holds one) and file locks.
func blockedState(status []byte) (blocked, lock bool) {
	switch string(status) {
	case "sync.Mutex.Lock", "sync.RWMutex.RLock", "sync.RWMutex.Lock":
		return true, true
	case "chan receive", "chan send", "chan receive (nil chan)", "chan send (nil chan)",
		"select", "select (no cases)", "sync.Cond.Wait", "sync.WaitGroup.Wait":
		return true, false
	}
	return false, false
}
