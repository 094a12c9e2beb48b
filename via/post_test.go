package via

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// blockSleep replaces the slow-node wait with one that reports each
// penalty on the returned channel and then blocks until release is
// closed, so a test holds a poster inside a slowed transfer for as long
// as it likes.
func blockSleep(t *testing.T) (entered chan time.Duration, release chan struct{}) {
	t.Helper()
	entered, release = make(chan time.Duration, 16), make(chan struct{})
	old := sleep
	sleep = func(d time.Duration) {
		entered <- d
		<-release
	}
	t.Cleanup(func() { sleep = old })
	return entered, release
}

// postReturns runs post and fails the test unless it returns within the
// test timeout, with no error.
func postReturns(t *testing.T, what string, post func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- post() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(testTimeout):
		t.Fatalf("%s blocked its caller", what)
	}
}

// TestPostCompletesInlineOnIdleLink: on an idle NIC whose peer is an
// unslowed NIC of this process, a send and a remote write are done when
// the post returns: the bytes are in place, and the receiver's CQ
// already holds the receive.
func TestPostCompletesInlineOnIdleLink(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	cq, err := NewCompletionQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	vb.SetRecvCQ(cq)
	src, _ := na.RegisterMemory([]byte("inline!!"))
	dst, _ := nb.RegisterMemory(make([]byte, 16))
	dst.EnableRemoteWrite()

	rd := MustDescriptor(Segment{Region: dst, Len: 8})
	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: src, Len: 8})
	if err := va.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if s := sd.Status(); s != DescDone {
		t.Fatalf("send status %v when PostSend returned, want done", s)
	}
	c, ok := cq.Poll()
	if !ok || c.Desc != rd || rd.Status() != DescDone || rd.Transferred() != 8 {
		t.Fatalf("receiver CQ after PostSend: %+v (ok %v), receive %v with %d bytes", c, ok, rd.Status(), rd.Transferred())
	}

	wd := MustDescriptor(Segment{Region: src, Offset: 2, Len: 6})
	if err := va.PostRDMAWrite(wd, dst.Handle(), 8); err != nil {
		t.Fatal(err)
	}
	if s := wd.Status(); s != DescDone {
		t.Fatalf("remote write status %v when PostRDMAWrite returned, want done", s)
	}
	got := make([]byte, 16)
	dst.Read(got, 0)
	if want := "inline!!line!!\x00\x00"; string(got) != want {
		t.Fatalf("target memory %q, want %q", got, want)
	}
	if st := na.Stats(); st.SendsPosted != 2 || st.SendsComplete != 2 || st.RDMAWrites != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSlowedPostDelaysOnlyItsPoster: a post to a slowed peer sleeps out
// the penalty on its own goroutine with nothing locked, so a post to an
// unslowed peer on the same NIC meanwhile is done when it returns, and
// the slowed one completes once its penalty is over.
func TestSlowedPostDelaysOnlyItsPoster(t *testing.T) {
	entered, release := blockSleep(t)
	f, nics, vis := triad(t)
	f.SlowNode("n1", time.Hour)
	src, _ := nics[0].RegisterMemory([]byte("abcd"))
	var dst [3]*MemoryRegion
	for _, i := range []int{1, 2} {
		dst[i], _ = nics[i].RegisterMemory(make([]byte, 4))
		dst[i].EnableRemoteWrite()
	}

	slowed := MustDescriptor(Segment{Region: src, Len: 4})
	slowedDone := make(chan error, 1)
	go func() { slowedDone <- vis[0][1].PostRDMAWrite(slowed, dst[1].Handle(), 0) }()
	if d := <-entered; d != time.Hour {
		t.Fatalf("slept %v, want the penalty", d)
	}
	other := MustDescriptor(Segment{Region: src, Len: 4})
	postReturns(t, "post to an unslowed peer", func() error {
		return vis[0][2].PostRDMAWrite(other, dst[2].Handle(), 0)
	})
	if s := other.Status(); s != DescDone {
		t.Fatalf("post to an unslowed peer is %v when it returns, want done", s)
	}
	if s := slowed.Status(); s != DescPosted {
		t.Fatalf("the slowed post is %v inside its penalty, want still posted", s)
	}
	close(release)
	select {
	case err := <-slowedDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(testTimeout):
		t.Fatal("the slowed post never returned")
	}
	if s := slowed.Status(); s != DescDone {
		t.Fatalf("the slowed post is %v when it returns, want done", s)
	}
}

// TestConcurrentPostsKeepPostOrder: posters share a NIC whose link to
// one peer flips between slowed and not, so their transfers move now
// inline and now on the engine, gathered or in one copy. Each poster's
// second transfer, posted without waiting for its first, completes
// after it.
func TestConcurrentPostsKeepPostOrder(t *testing.T) {
	const posters, flips = 3, 20
	f, nics, vis := triad(t)
	var dst [3]*MemoryRegion
	for _, i := range []int{1, 2} {
		dst[i], _ = nics[i].RegisterMemory(make([]byte, 8*posters))
		dst[i].EnableRemoteWrite()
	}
	// The posters run until the link has flipped flips times, each at
	// least once.
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; i < flips; i++ {
			f.SlowNode("n1", time.Duration((i+1)%2)*50*time.Microsecond)
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		src, _ := nics[0].RegisterMemory([]byte("abcdefgh"))
		first := MustDescriptor(Segment{Region: src, Len: 4}, Segment{Region: src, Offset: 4, Len: 4})
		second := MustDescriptor(Segment{Region: src, Len: 8})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-flipped:
					if i > 0 {
						return
					}
				default:
				}
				if err := vis[0][1].PostRDMAWrite(first, dst[1].Handle(), 8*p); err != nil {
					t.Error(err)
					return
				}
				if err := vis[0][2].PostRDMAWrite(second, dst[2].Handle(), 8*p); err != nil {
					t.Error(err)
					return
				}
				if err := second.Wait(testTimeout); err != nil {
					t.Error(err)
					return
				}
				if s := first.Status(); s != DescDone {
					t.Errorf("poster %d round %d: the second transfer completed while the first was %v", p, i, s)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, i := range []int{1, 2} {
		got := make([]byte, 8*posters)
		dst[i].Read(got, 0)
		if want := bytes.Repeat([]byte("abcdefgh"), posters); !bytes.Equal(got, want) {
			t.Errorf("n%d memory %q, want %q", i, got, want)
		}
	}
}

// TestCrossedTransfersDoNotDeadlock: two NICs copy between the same two
// regions in opposite directions at once, by remote write and by send,
// so each copy holds one region while it takes the other. The global
// region order keeps them moving.
func TestCrossedTransfersDoNotDeadlock(t *testing.T) {
	// Halves large enough that the copies overlap in time.
	const rounds, half = 500, 16 << 10
	_, na, nb, va, vb := pair(t)
	ra, _ := na.RegisterMemory(bytes.Repeat([]byte{'a'}, 2*half))
	rb, _ := nb.RegisterMemory(bytes.Repeat([]byte{'b'}, 2*half))
	ra.EnableRemoteWrite()
	rb.EnableRemoteWrite()

	// Receives land in the second half of a side's region, which the
	// peer's sends fill from the first half of its own; remote writes go
	// from the second half of a region to the first half of the peer's.
	// Each side keeps receives posted ahead and waits for one per round,
	// so neither runs more than a round ahead of the other.
	const ahead = 4
	type side struct {
		v         *VI
		own, peer *MemoryRegion
		recvs     []*Descriptor
	}
	postRecv := func(s *side) error {
		rd := MustDescriptor(Segment{Region: s.own, Offset: half, Len: half})
		s.recvs = append(s.recvs, rd)
		return s.v.PostRecv(rd)
	}
	sides := []*side{{v: va, own: ra, peer: rb}, {v: vb, own: rb, peer: ra}}
	for _, s := range sides {
		for i := 0; i < ahead; i++ {
			if err := postRecv(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	run := func(s *side) error {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			w := MustDescriptor(Segment{Region: s.own, Offset: half, Len: half})
			if err := s.v.PostRDMAWrite(w, s.peer.Handle(), 0); err != nil {
				return err
			}
			sd := MustDescriptor(Segment{Region: s.own, Len: half})
			if err := s.v.PostSend(sd); err != nil {
				return err
			}
			for _, d := range []*Descriptor{w, sd, s.recvs[i]} {
				if err := d.Wait(testTimeout); err != nil {
					return err
				}
			}
			if err := postRecv(s); err != nil {
				return err
			}
		}
		return nil
	}
	wg.Add(len(sides))
	for _, s := range sides {
		go func() {
			if err := run(s); err != nil {
				t.Error(err)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(4 * testTimeout):
		t.Fatal("crossed transfers deadlocked")
	}
}

// TestCloseDuringPenaltyFailsPost: a post whose NIC closes while it
// sleeps out a slowed link's penalty moves nothing: it returns
// ErrClosed and completes its descriptor with it.
func TestCloseDuringPenaltyFailsPost(t *testing.T) {
	entered, release := blockSleep(t)
	f, na, nb, va, _ := pair(t)
	f.SlowNode("nodeB", time.Hour)
	src, _ := na.RegisterMemory([]byte("abcd"))
	dst, _ := nb.RegisterMemory(make([]byte, 4))
	dst.EnableRemoteWrite()

	d := MustDescriptor(Segment{Region: src, Len: 4})
	done := make(chan error, 1)
	go func() { done <- va.PostRDMAWrite(d, dst.Handle(), 0) }()
	<-entered
	na.Close()
	close(release)
	var err error
	select {
	case err = <-done:
	case <-time.After(testTimeout):
		t.Fatal("post across Close blocked")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post across Close: %v, want ErrClosed", err)
	}
	if s := d.Status(); s != DescError || !errors.Is(d.Err(), ErrClosed) {
		t.Fatalf("descriptor %v with %v, want completed with ErrClosed", s, d.Err())
	}
	if st := na.Stats(); st.SendsComplete != st.SendsPosted {
		t.Fatalf("after close: stats %+v", st)
	}
}
