package via

import (
	"syscall"
	"time"
)

// threadTimers reports that a thread can block in the kernel for a
// sub-millisecond wait with a timer slack of its own.
const threadTimers = true

// prctl's timer-slack options and nanosleep fail only for a bad
// option, a bad address or a negative time, and nanosleep then returns
// at once, as time.Sleep does for one; no error is worth returning.

// timerSlack returns the calling thread's timer slack in nanoseconds.
func timerSlack() uintptr {
	ns, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
	return ns
}

// setTimerSlack sets the calling thread's timer slack to ns nanoseconds.
func setTimerSlack(ns uintptr) {
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, ns, 0)
}

// nanosleep blocks the calling thread in the kernel for d. A signal
// (the runtime's preemption signal among them) interrupts the sleep;
// it resumes with what remains.
func nanosleep(d time.Duration) {
	req, rem := syscall.NsecToTimespec(int64(d)), syscall.Timespec{}
	for syscall.Nanosleep(&req, &rem) == syscall.EINTR {
		req = rem
	}
}
