package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"polygraph/internal/rng"
)

// arrivals returns round(rate·dur) arrival offsets drawn uniformly over
// [0, dur) and sorted: a Poisson process of independent users,
// conditioned on its count so every phase offers exactly its nominal
// rate.
func arrivals(rate float64, dur time.Duration, gen *rng.PCG) []time.Duration {
	n := int(rate*dur.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(gen.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sleepUntil blocks the calling thread until t with nanosleep(2).
// time.Sleep parks the goroutine on the runtime timer, which on a busy
// two-core box overshoots by about a millisecond; a direct nanosleep
// on a locked thread overshoots by tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // EINTR: loop and recompute
	}
}

// dispatcher releases scheduled requests into a queue at their due
// times, from one goroutine on a locked OS thread. The queue holds the
// whole schedule, so a slow server never slows the schedule: the loop
// is open, and the queue is the generator's backlog.
type dispatcher struct {
	start time.Time
	offs  []time.Duration
	queue chan int
	// lagUs[i] is how late request i was released, in µs.
	lagUs []float64
	// maxBacklog stops the phase once more requests than this wait
	// unsent: the phase has already failed, and draining a growing
	// backlog would only stretch the run.
	maxBacklog int
	aborted    atomic.Bool
	// endBacklog is the queue length when the last request was due.
	endBacklog int
}

func newDispatcher(start time.Time, offs []time.Duration, maxBacklog int) *dispatcher {
	return &dispatcher{
		start:      start,
		offs:       offs,
		queue:      make(chan int, len(offs)),
		lagUs:      make([]float64, len(offs)),
		maxBacklog: maxBacklog,
	}
}

// run dispatches the schedule and closes the queue.
func (d *dispatcher) run() {
	runtime.LockOSThread()
	// Unlock before returning: a goroutine that exits locked takes its
	// thread down with it.
	defer runtime.UnlockOSThread()
	defer close(d.queue)
	for i, off := range d.offs {
		due := d.start.Add(off)
		sleepUntil(due)
		d.lagUs[i] = float64(time.Since(due).Nanoseconds()) / 1e3
		if len(d.queue) > d.maxBacklog {
			d.aborted.Store(true)
			d.lagUs = d.lagUs[:i+1]
			return
		}
		d.queue <- i
	}
	d.endBacklog = len(d.queue)
}

// due returns request i's due time.
func (d *dispatcher) due(i int) time.Time { return d.start.Add(d.offs[i]) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
