package main

import "time"

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes: other tenants contend for the core's caches and its
// hyperthread sibling, and the simulator, which is branchy and cache-bound,
// slows with them. A fixed reference kernel that looks like the simulator's
// inner loop is timed between operations, and every timing is rescaled to
// the speed at which the kernel takes refKernelSeconds. The kernel is the
// benchmark's own code, so a change to the program does not move it.

// refKernelSeconds is the kernel's nominal time: a timing reported by the
// benchmark is what it would have been on a machine where one kernel call
// takes this long. The value only fixes the scale; it is the median kernel
// time measured on a 2-vCPU Xeon VM.
const refKernelSeconds = 0.2

// kernelSeconds times one call of the reference kernel.
func kernelSeconds() float64 {
	t0 := time.Now()
	kernel()
	return time.Since(t0).Seconds()
}

// kernelEvent mirrors the shape of a simulator event: a timestamp, a
// tie-break sequence number, two payload words and a pointer.
type kernelEvent struct {
	t        int64
	seq      uint64
	key, val uint64
	obj      *[4]uint64
}

// kernelSink keeps the kernel's result alive so it is not optimized out.
var kernelSink uint64

const (
	kernelHeap   = 40_000  // pending events, about 1.6 MB
	kernelState  = 1 << 19 // 4 MiB of per-entity state
	kernelEvents = 400_000 // events dispatched per call
)

// kernel is a small discrete-event loop: it pops the earliest event from a
// binary heap, dispatches it through a table of handlers that read and write
// random entries of a state table larger than a core's L2 cache, allocates a
// small object every eighth event, and reschedules it. The work is fixed, so
// its time measures only the machine.
func kernel() {
	state := make([]uint64, kernelState)
	const mask = kernelState - 1
	handlers := [...]func(*kernelEvent){
		func(e *kernelEvent) { state[e.key&mask] += e.val },
		func(e *kernelEvent) { state[(e.key>>7)&mask] ^= uint64(e.t) },
		func(e *kernelEvent) { e.val += state[(e.key>>3)&mask] },
		func(e *kernelEvent) { state[(e.val*31)&mask]++ },
	}
	h := make([]kernelEvent, 0, kernelHeap+1)
	less := func(i, j int) bool {
		return h[i].t < h[j].t || h[i].t == h[j].t && h[i].seq < h[j].seq
	}
	push := func(e kernelEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(i, p) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() kernelEvent {
		e := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && less(r, m) {
				m = r
			}
			if !less(m, i) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return e
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < kernelHeap; i++ {
		r := rnd()
		push(kernelEvent{t: int64(r % 1_000_000), seq: uint64(i), key: r})
	}
	for i := 0; i < kernelEvents; i++ {
		e := pop()
		r := rnd()
		handlers[r&3](&e)
		if i%8 == 0 {
			e.obj = &[4]uint64{r, e.val}
		}
		e.key = r
		e.t += int64(r%10_000) + 1
		e.seq = uint64(kernelHeap + i)
		push(e)
	}
	kernelSink += uint64(len(h)) + state[x&mask]
}
