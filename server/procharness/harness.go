package procharness

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"press/server"
	"press/telemetry"
	"press/trace"
)

// Options configures a multi-process cluster.
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Transport is "tcp" (default) or "via".
	Transport string
	// Version is the VIA communication version (V0..V5); VIA only.
	Version string
	// Strategy names the dissemination strategy (default PB).
	Strategy string
	// TraceName picks the file population (default clarknet); every
	// child serves its hottest files (see files).
	TraceName string
	// Incidents runs each child's flight recorder, dumping to
	// IncidentPath(i) on peer death or SIGQUIT.
	Incidents bool
}

// Every child runs these pressd settings; a child drains on SIGTERM
// within pressd's own -drain default (5 s).
const (
	// files bounds the population each child serves, so a node is up in
	// a fraction of a second.
	files = 200
	// heartbeat compresses the failure detectors (pressd -heartbeat:
	// suspect, dead and failover timers scale with it) so a kill -9 is
	// detected, and a rejoin converges, in seconds instead of minutes.
	heartbeat = 50 * time.Millisecond
	// traceRequests sizes the request stream Trace returns; the file
	// population does not depend on it.
	traceRequests = 20000
)

// Harness owns N node processes. The zero value is unusable; build one
// with Start. All methods are safe for concurrent use.
type Harness struct {
	opts      Options
	exe       string
	dir       string // scratch: logs and incident reports, removed on Close
	peerAddrs []string
	httpAddrs []string
	tr        *trace.Trace

	mu    sync.Mutex
	procs []*proc // indexed by node id; nil = never started
}

type proc struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
	state  *os.ProcessState
}

// Start launches the cluster: ports allocated, children spawned, every
// node serving HTTP and converged on its peers.
func Start(opts Options) (*Harness, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Transport == "" {
		opts.Transport = "tcp"
	}
	if opts.TraceName == "" {
		opts.TraceName = "clarknet"
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("procharness: %w", err)
	}
	h := &Harness{opts: opts, exe: exe, procs: make([]*proc, opts.Nodes)}
	if h.dir, err = os.MkdirTemp("", "press-proc-*"); err != nil {
		return nil, err
	}

	// The parent synthesizes the identical (seeded) population the
	// children build, with a request stream over it to drive them.
	ts, err := trace.SpecByName(opts.TraceName)
	if err != nil {
		h.cleanup()
		return nil, err
	}
	if files < ts.NumFiles {
		ts.NumFiles = files
	}
	ts.NumRequests = traceRequests
	if h.tr, err = trace.Synthesize(ts); err != nil {
		h.cleanup()
		return nil, err
	}

	if h.peerAddrs, err = reserveTCP(opts.Nodes); err != nil {
		h.cleanup()
		return nil, err
	}
	if h.httpAddrs, err = reserveTCP(opts.Nodes); err != nil {
		h.cleanup()
		return nil, err
	}
	for i := 0; i < opts.Nodes; i++ {
		if err := h.spawn(i); err != nil {
			h.Close()
			return nil, err
		}
	}
	ready := 30 * time.Second
	for i := 0; i < opts.Nodes; i++ {
		if err := h.WaitReady(i, ready); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// reserveTCP grabs n distinct loopback ports and releases them; the
// children rebind moments later. The tiny reuse race is acceptable for
// a test harness and unavoidable without fd passing.
func reserveTCP(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// args is node id's pressd command line: mesh mode on the reserved
// addresses, the harness's population and heartbeat, and the options
// that were set.
func (h *Harness) args(id int) []string {
	args := []string{
		"-node", strconv.Itoa(id),
		"-peers", strings.Join(h.peerAddrs, ","),
		"-http", h.httpAddrs[id],
		"-transport", h.opts.Transport,
		"-trace", h.opts.TraceName,
		"-files", strconv.Itoa(files),
		"-heartbeat", heartbeat.String(),
	}
	if h.opts.Version != "" {
		args = append(args, "-version", h.opts.Version)
	}
	if h.opts.Strategy != "" {
		args = append(args, "-dissemination", h.opts.Strategy)
	}
	if h.opts.Incidents {
		args = append(args, "-incident-out", h.IncidentPath(id))
	}
	return args
}

// spawn re-execs this binary as node id: MaybeChild sees the marker
// and runs pressd with the argv.
func (h *Harness) spawn(id int) error {
	logf, err := os.OpenFile(filepath.Join(h.dir, fmt.Sprintf("node-%d.log", id)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(h.exe, h.args(id)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("procharness: node %d: %w", id, err)
	}
	p := &proc{cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		p.state = cmd.ProcessState
		logf.Close()
		close(p.exited)
	}()
	h.mu.Lock()
	h.procs[id] = p
	h.mu.Unlock()
	return nil
}

func (h *Harness) proc(id int) *proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.procs[id]
}

// URL returns node id's base URL.
func (h *Harness) URL(id int) string { return "http://" + h.httpAddrs[id] }

// IncidentPath returns where node id dumps flight-recorder incidents.
func (h *Harness) IncidentPath(id int) string {
	return filepath.Join(h.dir, fmt.Sprintf("incident-%d.json", id))
}

// Trace returns the stream to drive the cluster with: the children's
// file population (same trace, same seed) and requests over it.
func (h *Harness) Trace() *trace.Trace { return h.tr }

// Running reports whether node id's process is currently alive.
func (h *Harness) Running(id int) bool {
	p := h.proc(id)
	if p == nil {
		return false
	}
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// NodeStats is the part of a node's /_press/metrics the harness reads.
type NodeStats struct {
	Node     int
	Requests int64
	Errors   int64
	// Peers is the node's verdict on each node ("alive", "suspect",
	// "dead"; its own entry "alive").
	Peers    []string
	Degraded bool
	// Membership (TCP only; zero and nil on VIA): the epoch this process
	// life runs under, the highest accepted per peer, and the frames
	// dropped for a stale epoch.
	Epoch           uint64
	PeerEpochs      []uint64
	StaleEpochDrops int64
}

var statsClient = &http.Client{Timeout: 2 * time.Second}

// Stats scrapes node id's /_press/metrics.
func (h *Harness) Stats(id int) (*NodeStats, error) {
	resp, err := statsClient.Get(h.URL(id) + "/_press/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("procharness: stats node %d: %s", id, resp.Status)
	}
	return parseStats(resp.Body, id, h.opts.Nodes)
}

// parseStats reads node id's samples out of a /_press/metrics scrape of
// a cluster of n nodes. Only samples labelled node=id count: an
// in-process cluster's endpoint serves every node's families. Epochs
// are read from their label, where they keep all 64 bits.
func parseStats(r io.Reader, id, n int) (*NodeStats, error) {
	samples, err := telemetry.ParseProm(r)
	if err != nil {
		return nil, err
	}
	ns := &NodeStats{Node: id, Peers: make([]string, n)}
	self, seen := strconv.Itoa(id), false
	for _, s := range samples {
		peer, err := strconv.Atoi(s.Label("peer"))
		if s.Label("node") != self || err == nil && (peer < 0 || peer >= n) {
			continue
		}
		epoch, _ := strconv.ParseUint(s.Label("epoch"), 10, 64)
		switch s.Name {
		case "press_requests_total":
			ns.Requests, seen = int64(s.Value), true
		case "press_errors_total":
			ns.Errors = int64(s.Value)
		case "press_degraded":
			ns.Degraded = s.Value != 0
		case "press_stale_epoch_drops_total":
			ns.StaleEpochDrops = int64(s.Value)
		case "press_node_state":
			ns.Peers[peer] = server.NodeState(s.Value).String()
		case "press_epoch":
			ns.Epoch = epoch
		case "press_peer_epoch":
			if ns.PeerEpochs == nil {
				ns.PeerEpochs = make([]uint64, n)
			}
			ns.PeerEpochs[peer] = epoch
		}
	}
	if !seen {
		return nil, fmt.Errorf("procharness: node %d serves no account", id)
	}
	return ns, nil
}

// WaitReady polls until node id answers /_press/metrics.
func (h *Harness) WaitReady(id int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := h.Stats(id); err == nil {
			return nil
		}
		if p := h.proc(id); p != nil {
			select {
			case <-p.exited:
				return fmt.Errorf("procharness: node %d exited before ready (%s): see %s",
					id, p.state, filepath.Join(h.dir, fmt.Sprintf("node-%d.log", id)))
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("procharness: node %d not ready after %v", id, timeout)
		}
		//presslint:ignore naked-sleep polling a real child process's readiness over HTTP is wall-clock by nature
		time.Sleep(50 * time.Millisecond)
	}
}

// WaitConverged blocks until every node in live sees every other live
// node as alive AND has accepted its current epoch — the rejoin-
// convergence condition after a crash-restart.
func (h *Harness) WaitConverged(timeout time.Duration, live ...int) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		stats := make(map[int]*NodeStats, len(live))
		ok := true
		for _, id := range live {
			ns, err := h.Stats(id)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			stats[id] = ns
		}
		if ok {
			lastErr = converged(stats, live)
			if lastErr == nil {
				return nil
			}
		}
		//presslint:ignore naked-sleep rejoin convergence of real processes is observed, not modeled; 100ms is the stats poll interval
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("procharness: not converged after %v: %w", timeout, lastErr)
}

func converged(stats map[int]*NodeStats, live []int) error {
	for _, i := range live {
		for _, j := range live {
			if i == j {
				continue
			}
			if got := stats[i].Peers[j]; got != "alive" {
				return fmt.Errorf("node %d sees node %d as %s", i, j, got)
			}
			// Epoch agreement only applies on the membership mesh (TCP).
			if stats[i].Epoch != 0 && stats[j].Epoch != 0 &&
				stats[i].PeerEpochs[j] != stats[j].Epoch {
				return fmt.Errorf("node %d holds epoch %d for node %d, which runs %d",
					i, stats[i].PeerEpochs[j], j, stats[j].Epoch)
			}
		}
	}
	return nil
}

// Kill delivers SIGKILL — the crash under test — and reaps the corpse.
func (h *Harness) Kill(id int) error {
	p := h.proc(id)
	if p == nil || !h.Running(id) {
		return fmt.Errorf("procharness: node %d not running", id)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	<-p.exited
	return nil
}

// Terminate delivers SIGTERM and waits for the graceful exit,
// returning the child's exit code.
func (h *Harness) Terminate(id int, timeout time.Duration) (int, error) {
	p := h.proc(id)
	if p == nil || !h.Running(id) {
		return -1, fmt.Errorf("procharness: node %d not running", id)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	select {
	case <-p.exited:
		return p.state.ExitCode(), nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return -1, fmt.Errorf("procharness: node %d did not drain within %v", id, timeout)
	}
}

// SignalQuit asks node id for a flight-recorder incident dump.
func (h *Harness) SignalQuit(id int) error {
	p := h.proc(id)
	if p == nil || !h.Running(id) {
		return fmt.Errorf("procharness: node %d not running", id)
	}
	return p.cmd.Process.Signal(syscall.SIGQUIT)
}

// Restart relaunches a dead node under the same identity and
// addresses; the fresh process derives a new, larger epoch and rejoins.
func (h *Harness) Restart(id int) error {
	if h.Running(id) {
		return fmt.Errorf("procharness: node %d still running", id)
	}
	if err := h.spawn(id); err != nil {
		return err
	}
	return h.WaitReady(id, 30*time.Second)
}

// Close kills every live child and removes the scratch directory.
func (h *Harness) Close() {
	h.mu.Lock()
	procs := append([]*proc(nil), h.procs...)
	h.mu.Unlock()
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.exited:
		default:
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	h.cleanup()
}

func (h *Harness) cleanup() { os.RemoveAll(h.dir) }
