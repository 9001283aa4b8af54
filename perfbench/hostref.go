package main

import (
	"container/heap"
	"runtime"
	"time"
)

// On a shared 2-vCPU Xeon VM the host's speed was measured to drift by
// ±20% from minute to minute and by up to 2× over an hour: more than any
// bound a host-time metric could usefully have. So each timed phase
// also samples a fixed reference kernel, interleaved with the phase's own
// work (or, for the open loop, just before and after it), and host-time
// metrics are reported scaled to a host that runs the kernel at refRate
// per second.
//
// The kernel is a miniature event queue: heap pushes and pops of boxed
// integers plus map updates. It allocates, chases pointers and branches
// as the simulator does, so its speed tracks the host's speed for the
// simulator. In a 160 s experiment the raw wide-scale throughput of
// eight runs varied with a CV of 14%, and the scaled throughput with a
// CV of 2.5%. A SHA-256 kernel only reached 8.5%, and a pointer chase
// 6.2%. The kernel is the benchmark's own code and shares nothing with
// the simulator, so a slower simulator still reads slower.

// refRate is the kernel's rate on the reference host: near its median
// on the 2-vCPU Xeon the benchmark was tuned on, so scaled and raw
// values are close there.
const refRate = 2400.0

// refKernel is one call of the reference kernel.
func refKernel() int {
	h := &refHeap{}
	m := make(map[int64]int64)
	x := int64(1)
	n := 0
	for k := 0; k < 2000; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(h, x>>20)
		m[x>>40] += x
		if h.Len() > 64 {
			n += int(heap.Pop(h).(int64) & 1)
		}
	}
	return n + len(m)
}

type refHeap []int64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *refHeap) Pop() any {
	o := *h
	x := o[len(o)-1]
	*h = o[:len(o)-1]
	return x
}

// refAllocsPerCall is the number of heap allocations one kernel call
// makes (a constant: the kernel's inputs never change), so phases can
// leave the kernel's allocations out of allocs_per_job. measureRef sets
// it before any phase runs.
var refAllocsPerCall uint64

func measureRef() {
	refKernel()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	refKernel()
	runtime.ReadMemStats(&b)
	refAllocsPerCall = b.Mallocs - a.Mallocs
}

// refClock accumulates reference-kernel samples over a phase.
type refClock struct {
	calls int
	busy  time.Duration
	last  time.Time // end of the last sample
	sink  int
}

// Sampling cadence: a refSlice sample whenever refEvery has passed since
// the last one, about 5% of a phase's time; an open-loop phase is
// bracketed by refBracket samples instead.
const (
	refSlice   = 10 * time.Millisecond
	refEvery   = 200 * time.Millisecond
	refBracket = 500 * time.Millisecond
)

// sample runs the kernel for at least d and returns how long it took.
func (r *refClock) sample(d time.Duration) time.Duration {
	t := time.Now()
	for time.Since(t) < d {
		r.sink += refKernel()
		r.calls++
	}
	el := time.Since(t)
	r.busy += el
	r.last = time.Now()
	return el
}

// allocs is the heap allocations the phase's samples made.
func (r *refClock) allocs() uint64 { return uint64(r.calls) * refAllocsPerCall }

// maybeSample samples when refEvery has passed since the last sample
// and returns the time spent (zero when it did not sample).
func (r *refClock) maybeSample() time.Duration {
	if !r.last.IsZero() && time.Since(r.last) < refEvery {
		return 0
	}
	return r.sample(refSlice)
}

// slowdown is how much slower than the reference host this phase ran:
// a raw host time divided by it, or a raw rate multiplied by it, is the
// value on the reference host. It is 1 when nothing was sampled.
func (r *refClock) slowdown() float64 {
	if r.calls == 0 || r.busy <= 0 {
		return 1
	}
	return refRate / (float64(r.calls) / r.busy.Seconds())
}
