package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Null-server calibration: the same driver against a bare net/http
// handler that writes a precomputed body. What it reports is the harness
// plus the loopback interface, the floor under edge-local, and the canary
// that tells a changed machine from changed code when two sets of runs
// disagree.

// nullBodies are the calibration's two response sizes; a workload is
// calibrated at the one nearer its own files.
var nullBodies = map[string][]byte{
	"/1k":  make([]byte, 1<<10),
	"/64k": make([]byte, 64<<10),
}

func init() {
	for _, body := range nullBodies {
		for i := range body {
			body[i] = byte(i * 131)
		}
	}
}

func nullHandler(w http.ResponseWriter, r *http.Request) {
	body, ok := nullBodies[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}

// nullCalibration drives the null server for seconds and reports the
// three driver.null_* metrics.
func nullCalibration(w *Workload, seed int64, seconds float64) (Values, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("null server: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(nullHandler), ReadHeaderTimeout: 2 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	path := "/1k"
	if files := w.population().Files; files[0].Size >= 32<<10 {
		path = "/64k"
	}
	drv := newDriver([]string{ln.Addr().String()}, []item{newItem(path, nullBodies[path])}, seed, nil)
	r := &rig{drv: drv}
	m := r.warmAndMeasure(phaseOf(seconds))
	drv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	<-served
	if m.t.failed() > 0 || m.t.ok == 0 {
		return nil, fmt.Errorf("null server: %d of %d requests failed: %v", m.t.failed(), m.t.attempted, m.t.firstErr)
	}
	v := Values{}
	v.set("driver.null_rps", m.t.rps())
	v.set("driver.null_p50_us", micros(quantile(m.t.lat, 0.50)))
	v.set("driver.null_allocs_per_req", float64(m.after.mem.Mallocs-m.before.mem.Mallocs)/float64(m.t.ok))
	return v, nil
}
