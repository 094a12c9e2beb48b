//go:build !linux

package via

import "time"

// Off Linux there is no per-thread timer slack (and darwin's syscall
// has no nanosleep), so defaultSleep falls back to time.Sleep for every
// wait.
const threadTimers = false

func timerSlack() uintptr     { return 0 }
func setTimerSlack(uintptr)   {}
func nanosleep(time.Duration) {}
