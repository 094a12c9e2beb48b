package via

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// threadCPU returns the CPU time, user and system, the calling thread
// has used.
func threadCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestDelayWaitsOffCPU: a modelled device delay blocks its thread in
// the kernel. 200 waits of 50 µs ask for 10 ms; a wait that spins on
// the clock uses about all of it, one that sleeps a few µs per wait.
//
// The wait's own cost is the least of three windows. What else charges
// the thread only adds to a window: under -race on a shared 2-vCPU host
// one window in a few used 2.4-4.4 ms with no GC cycle, no EINTR
// resumption, no other goroutine and the same 200 voluntary context
// switches as a 1 ms window. A wait that spins on the clock, yielding
// between looks, still used 4.6-5.5 ms in its least window.
func TestDelayWaitsOffCPU(t *testing.T) {
	const n, d = 200, 50 * time.Microsecond
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	used, asked := time.Duration(math.MaxInt64), n*d
	for range 3 {
		before := threadCPU(t)
		for range n {
			Delay(d)
		}
		used = min(used, threadCPU(t)-before)
	}
	t.Logf("%d × Delay(%v): %v of thread CPU for %v of waiting, the least of 3 windows", n, d, used, asked)
	if used >= asked/4 {
		t.Errorf("%d × Delay(%v) used %v of thread CPU, want < %v (a quarter of the %v waited)", n, d, used, asked/4, asked)
	}
}

// TestDelayIsSharp: a sub-millisecond delay is neither cut short nor
// rounded up to the runtime's 1 ms timer floor.
func TestDelayIsSharp(t *testing.T) {
	const n, d = 200, 50 * time.Microsecond
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		Delay(d)
		took[i] = time.Since(start)
		if took[i] < d {
			t.Fatalf("Delay(%v) returned after %v", d, took[i])
		}
	}
	slices.Sort(took)
	p50, p90 := took[n/2], took[n*9/10]
	t.Logf("Delay(%v): p50 %v, p90 %v", d, p50, p90)
	if p50 >= 500*time.Microsecond {
		t.Errorf("Delay(%v) median %v, want < 500µs", d, p50)
	}
}

// TestDelayRestoresTimerSlack: the runtime gets its thread back with
// the timer slack it had, whatever that was.
func TestDelayRestoresTimerSlack(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	orig := timerSlack()
	defer setTimerSlack(orig)
	for _, slack := range []uintptr{orig, 77_000} {
		setTimerSlack(slack)
		Delay(50 * time.Microsecond)
		if got := timerSlack(); got != slack {
			t.Errorf("timer slack %d ns after Delay, want %d ns", got, slack)
		}
	}
}
