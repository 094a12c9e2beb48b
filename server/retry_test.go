package server

import (
	"testing"
	"time"
)

// TestSleeper: the one reusable pause timer waits its time out, and gives
// up at once when stopped — also on the turn after a stop, when a stale
// tick must not cut the wait short.
func TestSleeper(t *testing.T) {
	var s sleeper
	stop := make(chan struct{})
	start := time.Now()
	if !s.sleep(5*time.Millisecond, stop) || !s.sleep(5*time.Millisecond, stop) {
		t.Fatal("sleep reported a stop nobody asked for")
	}
	if e := time.Since(start); e < 10*time.Millisecond {
		t.Fatalf("two 5 ms sleeps took %v", e)
	}
	close(stop)
	start = time.Now()
	if s.sleep(time.Hour, stop) {
		t.Fatal("sleep outlasted its stop channel")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("stopped sleep took %v", e)
	}
}
