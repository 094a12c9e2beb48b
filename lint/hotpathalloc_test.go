package lint

import "testing"

// Each case is its own whole program: the analyzer needs the call
// graph, so the fixtures type-check for real and the `// want` markers
// sit on the allocation sites the budget check must surface.
func TestHotpathAlloc(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{
			name: "direct allocation in the root",
			src: `package fx

//presslint:hotpath
func root() {
	_ = make([]int, 1) // want
}
`,
		},
		{
			name: "alloc-free root is clean",
			src: `package fx

//presslint:hotpath
func root(buf []byte, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += int(buf[i])
	}
	return s
}
`,
		},
		{
			name: "constant concatenation and a deferred literal allocate nothing",
			src: `package fx

const a, b = "accept", "full"

//presslint:hotpath
func root(done chan struct{}, s string) string {
	defer func() {
		done <- struct{}{}
	}()
	_ = a + "/" + b
	return s + "/" + b // want
}
`,
		},
		{
			name: "budget admits that many sites",
			src: `package fx

//presslint:hotpath budget=1
func root() {
	_ = make([]int, 1)
}
`,
		},
		{
			name: "over budget reports every site",
			src: `package fx

//presslint:hotpath budget=1
func root() {
	_ = make([]int, 1) // want
	_ = make([]int, 2) // want
}
`,
		},
		{
			name: "transitive allocation through a static callee",
			src: `package fx

//presslint:hotpath
func root() {
	_ = helper()
}

func helper() []byte {
	return make([]byte, 8) // want
}
`,
		},
		{
			name: "interface-dispatch allocation behind a callee",
			src: `package fx

type buffer interface{ grow() }

type heapBuffer struct{ b []byte }

func (h *heapBuffer) grow() {
	h.b = append(h.b, 0) // want
}

type fixedBuffer struct{ n int }

func (f *fixedBuffer) grow() { f.n++ }

//presslint:hotpath
func root(b buffer) {
	use(b)
}

func use(b buffer) {
	b.grow()
}
`,
		},
		{
			name: "goroutine boundary: the go statement counts, its callee does not",
			src: `package fx

func work() {
	_ = make([]int, 1)
}

//presslint:hotpath
func root() {
	go work() // want
}
`,
		},
		{
			name: "alloc-gated function is excluded from traversal",
			src: `package fx

//presslint:hotpath
func root() {
	slowPath()
}

//presslint:alloc-gated disabled in production; the -Off benchmark proves 0 allocs
func slowPath() {
	_ = make([]int, 1)
}
`,
		},
		{
			name: "alloc-gated statement exempts its subtree",
			src: `package fx

//presslint:hotpath
func root(on bool, xs []int) []int {
	if on {
		//presslint:alloc-gated enabled-path growth is amortized
		xs = append(xs, 1)
	}
	return xs
}
`,
		},
		{
			name: "error path is cold",
			src: `package fx

import "errors"

//presslint:hotpath
func root(n int) error {
	if n < 0 {
		msg := make([]byte, 8)
		_ = msg
		return errors.New("negative")
	}
	return nil
}
`,
		},
		{
			name: "capturing closure and string concatenation",
			src: `package fx

//presslint:hotpath
func root(a, b string, n int) string {
	f := func() int { return n } // want
	_ = f()
	return a + b // want
}
`,
		},
		{
			name: "unresolved function value cannot be proven alloc-free",
			src: `package fx

//presslint:hotpath
func root(fn func()) {
	fn() // want
}
`,
		},
		{
			name: "boxing into an interface parameter",
			src: `package fx

func sink(v any) { _ = v }

//presslint:hotpath
func root(x int) {
	sink(x) // want
}
`,
		},
		{
			name: "known-allocating stdlib call",
			src: `package fx

import "time"

//presslint:hotpath
func root(d time.Duration) {
	t := time.NewTimer(d) // want
	t.Stop()
}
`,
		},
		{
			name: "suppressed site",
			src: `package fx

//presslint:hotpath
func root() {
	_ = make([]int, 1) //presslint:ignore hotpath-alloc warm-up only; steady state measured alloc-free
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertProgramFindings(t, hotpathAllocName, map[string]string{"fx": tc.src})
		})
	}
}
