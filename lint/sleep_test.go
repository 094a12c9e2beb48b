package lint

import (
	"go/importer"
	"go/token"
	"strings"
	"testing"
)

func TestNakedSleep(t *testing.T) {
	cases := []struct {
		name string
		src  string
		test bool
		path string // the fixture package's import path
	}{
		{
			name: "time.Sleep in production code",
			src: `package fx

func pace() {
	time.Sleep(time.Millisecond) // want
}
`,
		},
		{
			name: "defaultSleep is the sanctioned seam",
			src: `package via

func defaultSleep(d time.Duration) {
	time.Sleep(d)
}
`,
			path: "press/via",
		},
		{
			name: "defaultSleep outside the via package is not the seam",
			src: `package fx

func defaultSleep(d time.Duration) {
	time.Sleep(d) // want
}
`,
			path: "press/fx",
		},
		{
			name: "Sleep on a non-time receiver",
			src: `package fx

func f(c clock) {
	c.Sleep(time.Second)
}
`,
		},
		{
			name: "test files are exempt",
			src: `package fx

func f() {
	time.Sleep(time.Millisecond)
}
`,
			test: true,
		},
		{
			name: "suppressed with justification",
			src: `package fx

func f() {
	time.Sleep(delay) //presslint:ignore naked-sleep modeled disk latency
}
`,
		},
		{
			name: "constant wait below 1 ms in any of its four forms",
			src: `package fx

func f(t *time.Timer) {
	time.Sleep(50 * time.Microsecond) // want
	<-time.After(time.Millisecond / 2) // want
	u := time.NewTimer(time.Duration(200) * time.Microsecond) // want
	t.Reset(999 * time.Microsecond) // want
	u.Reset((100 + 150) * time.Microsecond) // want
}
`,
		},
		{
			name: "1 ms and up, zero, and non-constant waits are left alone",
			src: `package fx

func f(t *time.Timer, d time.Duration, buf *bytes.Buffer, w *bufio.Writer) {
	<-time.After(time.Millisecond)
	u := time.NewTimer(0)
	u.Reset(2 * time.Millisecond)
	t.Reset(d)
	t.Reset(d * 50 * time.Microsecond)
	time.NewTimer(d / 2)
	buf.Reset()
	w.Reset(buf)
	h.Reset(5)
}
`,
		},
		{
			name: "sub-millisecond sleep is reported once, with the reason",
			src: `package fx

func f() {
	time.Sleep(time.Microsecond) // want
}
`,
		},
		{
			name: "suppressed sub-millisecond timer",
			src: `package fx

func f() {
	//presslint:ignore naked-sleep the peer is expected to answer within the same scheduler tick
	<-time.After(100 * time.Microsecond)
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := parseFixture(t, tc.src, tc.test)
			p.Path = tc.path
			assertFindings(t, p, tc.src, nakedSleepName)
		})
	}
}

// TestNakedSleepTyped: with type information a named constant resolves,
// and Reset is judged by its receiver's type rather than by how its
// argument is spelled.
func TestNakedSleepTyped(t *testing.T) {
	src := `package fx

import "time"

const pause = 50 * time.Microsecond
const long = 3 * pause * 10

type gauge struct{}

func (gauge) Reset(d time.Duration) {}

func f(t *time.Timer, g gauge) {
	time.Sleep(pause) // want
	t.Reset(pause) // want
	<-time.After(long)
	g.Reset(pause)
	g.Reset(50 * time.Microsecond)
}
`
	p := parseFixture(t, src, false)
	p.TypeCheck(importer.ForCompiler(token.NewFileSet(), "source", nil))
	assertFindings(t, p, src, nakedSleepName)
	for _, fd := range Check(p) {
		if fd.Analyzer == nakedSleepName && !strings.Contains(fd.Message, "rounds an idle wait up to 1 ms") {
			t.Errorf("line %d: message does not say why: %s", fd.Line, fd.Message)
		}
	}
}
