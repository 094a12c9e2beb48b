package lint

import "testing"

func TestDescriptorLifecycle(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{
			name: "re-post without reap",
			src: `package fx

func f() {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostRecv(d)
	vi.PostRecv(d) // want
}
`,
		},
		{
			name: "reset while posted",
			src: `package fx

func f(d *Descriptor) {
	vi.PostRecv(d)
	d.Reset() // want
}
`,
		},
		{
			name: "region mutated behind a posted descriptor",
			src: `package fx

func f(buf []byte) {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostRecv(d)
	r.Write(buf, 0) // want
}
`,
		},
		{
			name: "post in a loop with no reap is a re-post",
			src: `package fx

func f(n int) {
	for i := 0; i < n; i++ {
		vi.PostRecv(d) // want
	}
}
`,
		},
		{
			name: "completion reaped between posts",
			src: `package fx

func f() {
	vi.PostRecv(d)
	cq.Wait(0)
	vi.PostRecv(d)
}
`,
		},
		{
			name: "status gate clears the descriptor",
			src: `package fx

func f() {
	vi.PostRecv(d)
	if d.Status() == DescDone {
		vi.PostRecv(d)
	}
}
`,
		},
		{
			name: "descriptor escaping to a helper stops tracking",
			src: `package fx

func f() {
	vi.PostRecv(d)
	ship(d)
	vi.PostRecv(d)
}
`,
		},
		{
			name: "loop that reaps each iteration",
			src: `package fx

func f(n int) {
	for i := 0; i < n; i++ {
		vi.PostRecv(d)
		cq.Wait(0)
	}
}
`,
		},
		{
			name: "region write after descriptor completes",
			src: `package fx

func f(buf []byte) {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostRecv(d)
	d.Wait(0)
	r.Write(buf, 0)
}
`,
		},
		{
			name: "suppressed re-post",
			src: `package fx

func f() {
	vi.PostRecv(d)
	//presslint:ignore descriptor-lifecycle retried only after ErrQueueFull
	vi.PostRecv(d)
}
`,
		},
		// A send or remote write is complete when its post returns, so
		// nothing below is a finding.
		{
			name: "send posted twice",
			src: `package fx

func f() {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostSend(d)
	vi.PostSend(d)
}
`,
		},
		{
			name: "remote write posted twice",
			src: `package fx

func f(h Handle) {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostRDMAWrite(d, h, 0)
	vi.PostRDMAWrite(d, h, 8)
}
`,
		},
		{
			name: "send in a loop",
			src: `package fx

func f(n int) {
	for i := 0; i < n; i++ {
		vi.PostSend(d)
	}
}
`,
		},
		{
			name: "region restaged after a send",
			src: `package fx

func f(buf []byte) {
	d := MustDescriptor(Segment{Region: r, Len: 8})
	vi.PostSend(d)
	r.Write(buf, 0)
	vi.PostSend(d)
}
`,
		},
		{
			name: "reset after a send",
			src: `package fx

func f(d *Descriptor) {
	vi.PostSend(d)
	d.Reset()
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFixture(t, descriptorLifecycleName, tc.src, false)
		})
	}
}

// TestDescriptorLifecycleSummaries covers the one-call-boundary
// upgrade: a tracked descriptor handed to a same-package callee keeps
// its state when the callee's summary is post/reap/inspect, and only
// escapes when the callee does something the summary cannot follow.
func TestDescriptorLifecycleSummaries(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{
			name: "callee that posts makes the hand-off a re-post",
			src: `package fx

func f() {
	vi.PostRecv(d)
	shipOut(d) // want
}

func shipOut(d *Descriptor) {
	vi.PostRecv(d)
}
`,
		},
		{
			name: "callee that reaps clears posted state",
			src: `package fx

func f() {
	vi.PostRecv(d)
	settle(d)
	vi.PostRecv(d)
}

func settle(d *Descriptor) {
	d.Wait(0)
}
`,
		},
		{
			name: "inspect-only callee keeps the descriptor tracked",
			src: `package fx

func f() {
	vi.PostRecv(d)
	note(d)
	vi.PostRecv(d) // want
}

func note(d *Descriptor) {
	_ = d.Len()
}
`,
		},
		{
			name: "callee passing it a level deeper stays conservative",
			src: `package fx

func f() {
	vi.PostRecv(d)
	relay(d)
	vi.PostRecv(d)
}

func relay(d *Descriptor) {
	forward(d)
}

func forward(d *Descriptor) {
	vi.PostRecv(d)
}
`,
		},
		{
			name: "ambiguous callee name stays conservative",
			src: `package fx

type W struct{}

func f() {
	vi.PostRecv(d)
	handle(d)
	vi.PostRecv(d)
}

func handle(d *Descriptor) {
	vi.PostRecv(d)
}

func (w *W) handle(d *Descriptor) {
	d.Wait(0)
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFixture(t, descriptorLifecycleName, tc.src, false)
		})
	}
}
