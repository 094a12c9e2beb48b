// Package procharness runs a real multi-process PRESS cluster: each
// node is one OS process (a re-exec of the current binary into pressd's
// Main, with pressd's mesh-mode command line), meshed over real sockets
// with the membership handshake, driven and killed by a parent harness.
// It exists for the crash-restart acceptance tests and for press-sim
// -procs, where in-process chaos would prove nothing about surviving a
// kill -9.
package procharness

import (
	"os"
	"time"

	"press/pressd"
)

// childEnv marks a re-exec as a cluster node. Its presence turns any
// binary that calls MaybeChild into pressd, run with the argv the
// harness built.
const childEnv = "PRESS_PROC_CHILD"

// MaybeChild checks whether this process was launched as a cluster
// node and, if so, runs it to completion and exits. Call it first
// thing in main() (or TestMain) of any binary the harness re-execs;
// it returns immediately in the parent.
func MaybeChild() {
	if os.Getenv(childEnv) == "" {
		return
	}
	// Orphan watchdog: a harness that dies without cleanup (test binary
	// killed, panic in the parent) must not leave node processes bound
	// to their ports forever.
	parent := os.Getppid()
	go func() {
		//presslint:ignore goroutine-leak watchdog runs for the process lifetime by design; its only exit IS process exit
		for {
			//presslint:ignore naked-sleep getppid has no event to wait on; 500ms polling is the watchdog's sampling interval
			time.Sleep(500 * time.Millisecond)
			if pp := os.Getppid(); pp != parent || pp == 1 {
				os.Exit(3)
			}
		}
	}()
	os.Exit(pressd.Main(os.Args[1:]))
}
