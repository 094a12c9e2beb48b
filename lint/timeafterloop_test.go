package lint

import (
	"os"
	"testing"
)

func TestTimeAfterLoop(t *testing.T) {
	cases := []struct {
		name string
		src  string
		test bool
	}{
		{
			name: "time.After in for-select loop",
			src: `package fx

func recvLoop(stop chan struct{}) {
	for {
		select {
		case <-time.After(time.Second): // want
		case <-stop:
			return
		}
	}
}
`,
		},
		{
			name: "time.After in range loop",
			src: `package fx

func f(items []int) {
	for range items {
		<-time.After(time.Millisecond) // want
	}
}
`,
		},
		{
			name: "time.After outside any loop",
			src: `package fx

func f(stop chan struct{}) {
	select {
	case <-time.After(time.Second):
	case <-stop:
	}
}
`,
		},
		{
			name: "reusable NewTimer in loop is clean",
			src: `package fx

func recvLoop(stop chan struct{}) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	for {
		t.Reset(time.Second)
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}
`,
		},
		{
			name: "func literal body inside a loop is its own scope",
			src: `package fx

func f(jobs []int) {
	for range jobs {
		go func() {
			<-time.After(time.Second) // runs once per call, not per iteration
		}()
	}
}
`,
		},
		{
			name: "loop inside func literal is flagged",
			src: `package fx

func f() {
	go func() {
		for {
			<-time.After(time.Second) // want
		}
	}()
}
`,
		},
		{
			name: "After on a non-time receiver",
			src: `package fx

func f(c clock) {
	for {
		<-c.After(time.Second)
	}
}
`,
		},
		{
			name: "test files are exempt",
			src: `package fx

func f() {
	for {
		<-time.After(time.Millisecond)
	}
}
`,
			test: true,
		},
		{
			name: "suppressed with justification",
			src: `package fx

func f() {
	for {
		<-time.After(d) //presslint:ignore time-after-loop bounded to 3 iterations
	}
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFixture(t, timeAfterLoopName, tc.src, tc.test)
		})
	}
}

// TestTimerPerRequest runs the whole-program half over the fixture pair
// in testdata: a handler that arms timers per request, and the same
// handler with the timer owned by a recycled object.
func TestTimerPerRequest(t *testing.T) {
	srcs := make(map[string]string)
	for _, name := range []string{"flagged", "clean"} {
		src, err := os.ReadFile("testdata/servehttp_timer/" + name + ".go")
		if err != nil {
			t.Fatal(err)
		}
		srcs["fx/"+name] = string(src)
	}
	assertProgramFindings(t, timeAfterLoopName, srcs)
}
