package via

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// defaultSleep waits out a modelled device latency on the real clock,
// off the CPU: the waiting thread blocks in the kernel, as a disk
// helper thread blocks on its read, so a waiting disk costs the node's
// processor almost nothing (the paper's model gives the disk a queue of
// its own). An idle Go process parks in epoll_wait, whose timeout is
// whole milliseconds, so time.Sleep of a sub-millisecond d takes
// 1-1.5 ms; a millisecond and up is slept. A shorter d is one
// nanosleep(2) on a thread locked for the call, with the thread's timer
// slack (how late the kernel may fire its timer, 50 µs by default)
// lowered to 1 µs for that call only: a 50 µs wait then takes about
// 55 µs instead of up to 100 µs. The runtime gets the thread back with
// the slack it had.
func defaultSleep(d time.Duration) {
	if d >= time.Millisecond || !threadTimers {
		time.Sleep(d)
		return
	}
	runtime.LockOSThread()
	slack := timerSlack()
	setTimerSlack(sharpSlack)
	nanosleep(d)
	setTimerSlack(slack)
	runtime.UnlockOSThread()
}

// sharpSlack is the timer slack, in nanoseconds, of a thread blocked in
// defaultSleep.
const sharpSlack = 1000

// Delay waits d the way a slowed link's penalty does, for the other
// modelled devices of a node (the server's simulated disk): it blocks
// the calling goroutine's thread in the kernel for about d (on Linux to
// within a few microseconds) and uses almost no CPU while it waits.
func Delay(d time.Duration) { defaultSleep(d) }

type viState int

const (
	viIdle viState = iota
	viConnected
	viBroken
	viClosed
)

// VI is a Virtual Interface: a connected, bidirectional point-to-point
// communication end-point with a receive queue, analogous to a socket
// end-point in a TCP connection (Section 2.1). A send needs no queue:
// it moves before its post returns.
type VI struct {
	nic *NIC
	id  uint32

	mu        sync.Mutex
	state     viState
	brokenErr error
	peerNIC   *NIC
	peerVIID  uint32
	// recvQ is a fixed ring of the VI's depth in slots: posting a receive writes the
	// tail, the fabric pops the head. Sized once at creation so the
	// steady-state post/pop cycle never allocates.
	recvQ    []*Descriptor
	recvHead int
	recvLen  int
	recvCQ   *CompletionQueue
	recvDone chan Completion
}

func newVI(n *NIC, id uint32, depth int) *VI {
	return &VI{
		nic:      n,
		id:       id,
		recvQ:    make([]*Descriptor, depth),
		recvDone: make(chan Completion, 4*depth),
	}
}

// ID returns the VI's identifier on its NIC.
func (v *VI) ID() uint32 { return v.id }

// NIC returns the owning network interface.
func (v *VI) NIC() *NIC { return v.nic }

// SetRecvCQ routes receive completions to a completion queue instead of
// the VI-local RecvWait channel. Must be set before posting.
func (v *VI) SetRecvCQ(cq *CompletionQueue) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.recvCQ = cq
}

// Connect dials a VI listening on the remote NIC's service and blocks
// until the connection is accepted or rejected.
func (v *VI) Connect(remoteAddr, service string) error {
	v.mu.Lock()
	if v.state == viClosed {
		v.mu.Unlock()
		return ErrClosed
	}
	if v.state != viIdle {
		v.mu.Unlock()
		return ErrAlreadyConnected
	}
	v.mu.Unlock()

	remote, err := v.nic.fabric.lookup(remoteAddr)
	if err != nil {
		return err
	}
	// Connection management rides the same wires as data: dialing to
	// or from an isolated node fails, so reconnect probes cannot
	// succeed while the fault is still in force.
	if up, _ := v.nic.fabric.link(v.nic.addr, remoteAddr); !up {
		return fmt.Errorf("%w: %s -> %s", ErrLinkDown, v.nic.addr, remoteAddr)
	}
	l, err := remote.listener(service)
	if err != nil {
		return err
	}
	req := &connReq{fromVI: v, reply: make(chan error, 1)}
	select {
	case l.ch <- req:
	case <-l.closed:
		return ErrClosed
	case <-v.nic.done:
		return ErrClosed
	}
	select {
	case err := <-req.reply:
		return err
	case <-v.nic.done:
		return ErrClosed
	}
}

// bind pairs two VIs; called by Listener.Accept with both sides known.
func bind(a, b *VI) error {
	// Lock in a global order to avoid deadlock with concurrent binds.
	first, second := a, b
	if first.nic.addr > second.nic.addr || (first.nic.addr == second.nic.addr && first.id > second.id) {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	//presslint:ignore lock-order both VIs are locked in the global (addr, id) order chosen above, so concurrent binds cannot deadlock
	second.mu.Lock()
	defer second.mu.Unlock()
	if a.state != viIdle || b.state != viIdle {
		return ErrAlreadyConnected
	}
	a.state, b.state = viConnected, viConnected
	a.peerNIC, a.peerVIID = b.nic, b.id
	b.peerNIC, b.peerVIID = a.nic, a.id
	return nil
}

func (v *VI) peerRef() (*NIC, uint32, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch v.state {
	case viConnected:
		return v.peerNIC, v.peerVIID, nil
	case viBroken:
		return nil, 0, fmt.Errorf("%w: %v", ErrBroken, v.brokenErr)
	case viClosed:
		return nil, 0, ErrClosed
	default:
		return nil, 0, ErrNotConnected
	}
}

// PostSend posts a send descriptor: the payload described by its
// segments is transferred to the peer VI's next receive descriptor.
//
//presslint:hotpath budget=0
func (v *VI) PostSend(d *Descriptor) error {
	return v.postOut(d, opSend)
}

// PostRDMAWrite posts a remote memory write: the payload is written
// directly into the peer NIC's registered region at the given offset,
// without involving the remote processor or consuming a receive
// descriptor. The remote region must have remote writes enabled.
//
//presslint:hotpath budget=0
func (v *VI) PostRDMAWrite(d *Descriptor, remote Handle, remoteOffset int) error {
	d.remoteHandle = remote
	d.remoteOffset = remoteOffset
	return v.postOut(d, opRDMA)
}

func (v *VI) postOut(d *Descriptor, op opcode) error {
	v.mu.Lock()
	switch v.state {
	case viClosed:
		v.mu.Unlock()
		return ErrClosed
	case viBroken:
		err := v.brokenErr
		v.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrBroken, err)
	case viIdle:
		v.mu.Unlock()
		return ErrNotConnected
	}
	err := d.markPosted()
	v.mu.Unlock()
	if err != nil {
		return err
	}
	return v.nic.post(v, d, op)
}

// PostRecv posts a receive descriptor; incoming sends consume posted
// descriptors in FIFO order.
//
//presslint:hotpath budget=0
func (v *VI) PostRecv(d *Descriptor) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state == viClosed {
		return ErrClosed
	}
	if v.recvLen >= len(v.recvQ) {
		return ErrQueueFull
	}
	if err := d.markPosted(); err != nil {
		return err
	}
	v.recvQ[(v.recvHead+v.recvLen)%len(v.recvQ)] = d
	v.recvLen++
	v.nic.m.recvsPosted.Inc()
	return nil
}

func (v *VI) popRecv() *Descriptor {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.recvLen == 0 {
		return nil
	}
	d := v.recvQ[v.recvHead]
	v.recvQ[v.recvHead] = nil
	v.recvHead = (v.recvHead + 1) % len(v.recvQ)
	v.recvLen--
	return d
}

// drainRecvLocked empties the receive ring, returning the pending
// descriptors in post order; callers hold v.mu and complete them after
// unlocking (teardown paths).
func (v *VI) drainRecvLocked() []*Descriptor {
	if v.recvLen == 0 {
		return nil
	}
	out := make([]*Descriptor, 0, v.recvLen)
	for v.recvLen > 0 {
		out = append(out, v.recvQ[v.recvHead])
		v.recvQ[v.recvHead] = nil
		v.recvHead = (v.recvHead + 1) % len(v.recvQ)
		v.recvLen--
	}
	return out
}

// Completion reports one finished receive descriptor. Sends have no
// completion to report: a send or remote write is finished when its
// post returns, and the post returns its error.
type Completion struct {
	VI   *VI
	Desc *Descriptor
}

func (v *VI) recvCompleted(d *Descriptor) {
	v.mu.Lock()
	cq := v.recvCQ
	v.mu.Unlock()
	c := Completion{VI: v, Desc: d}
	if cq != nil {
		cq.push(c)
		return
	}
	// Best-effort notification: the descriptor's own status is the
	// authoritative completion record (Descriptor.Wait/Status), so an
	// undrained notification channel must not stall the sender whose
	// transfer completes the receive.
	select {
	case v.recvDone <- c:
	default:
	}
}

// RecvWait waits for the next receive completion on a VI without a
// receive CQ. timeout <= 0 waits forever. Notifications are best-effort
// with a 4x queue-depth buffer: a caller that lets them accumulate must
// fall back to Descriptor.Wait, which never loses a completion.
func (v *VI) RecvWait(timeout time.Duration) (Completion, error) {
	return waitCompletion(v.recvDone, timeout)
}

func waitCompletion(ch chan Completion, timeout time.Duration) (Completion, error) {
	if timeout <= 0 {
		c, ok := <-ch
		if !ok {
			return Completion{}, ErrClosed
		}
		return c, nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c, ok := <-ch:
		if !ok {
			return Completion{}, ErrClosed
		}
		return c, nil
	case <-t.C:
		return Completion{}, ErrTimeout
	}
}

// breakConn moves the VI (and its peer) to the error state: reliable
// connections report errors rather than masking them (Section 2.1).
func (v *VI) breakConn(err error) {
	v.mu.Lock()
	if v.state != viConnected {
		v.mu.Unlock()
		return
	}
	v.state = viBroken
	v.brokenErr = err
	peer := v.peerNIC
	peerID := v.peerVIID
	pending := v.drainRecvLocked()
	v.mu.Unlock()
	for _, d := range pending {
		d.complete(0, err)
		v.recvCompleted(d)
	}
	if peer != nil {
		if pv, ok := peer.vi(peerID); ok {
			pv.breakConn(err)
		}
	}
	// A break on a proxy VI must reach the real peer process; the hook
	// fires only on the viConnected -> viBroken transition above, so a
	// break echoed back over the wire terminates here.
	if v.nic.fw != nil {
		v.nic.fw.viBroken(v.id, err)
	}
}

// Err returns the error that broke the connection, if any.
func (v *VI) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.brokenErr
}

// Peer returns the connected peer's fabric address and VI id, or
// ok == false when the VI is not (or no longer) connected.
func (v *VI) Peer() (addr string, id uint32, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != viConnected || v.peerNIC == nil {
		return "", 0, false
	}
	return v.peerNIC.addr, v.peerVIID, true
}

// Close disconnects the VI; pending receive descriptors complete with
// ErrClosed.
func (v *VI) Close() {
	v.mu.Lock()
	if v.state == viClosed {
		v.mu.Unlock()
		return
	}
	wasConnected := v.state == viConnected
	v.state = viClosed
	peer := v.peerNIC
	peerID := v.peerVIID
	pending := v.drainRecvLocked()
	v.mu.Unlock()
	for _, d := range pending {
		d.complete(0, ErrClosed)
		v.recvCompleted(d)
	}
	if wasConnected && peer != nil {
		if pv, ok := peer.vi(peerID); ok {
			pv.breakConn(ErrClosed)
		}
	}
	v.nic.mu.Lock()
	delete(v.nic.vis, v.id)
	v.nic.mu.Unlock()
}
