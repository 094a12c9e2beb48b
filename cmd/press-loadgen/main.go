// Command press-loadgen drives a running PRESS cluster (see pressd)
// with a synthesized trace and reports throughput. The default mode is
// closed-loop (paper methodology: clients issue as fast as possible);
// -rate switches to an open-loop Poisson arrival process that keeps
// offering load no matter how slowly the cluster answers — the mode
// that pushes a cluster past saturation and exercises its overload
// control.
//
// Usage:
//
//	press-loadgen -targets http://127.0.0.1:PORT1,http://127.0.0.1:PORT2 \
//	              [-trace clarknet] [-files 2000] [-requests 20000] [-concurrency 32] \
//	              [-rate R] [-duration D] [-dissemination PB|...|NLB|SHARD]
//
// The -trace/-files flags must match the pressd instance so the
// requested names exist. With -dissemination, the generator asks the
// first target's /_press/stats endpoint which strategy the cluster
// runs and refuses to start on a mismatch — catching the classic
// benchmarking error of loading a differently-configured cluster.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"press/cliflag"
	"press/loadgen"
	"press/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("press-loadgen: ")
	var (
		targets     = flag.String("targets", "", "comma-separated base URLs of cluster nodes")
		traceName   = flag.String("trace", "clarknet", "trace name (must match pressd)")
		files       = flag.Int("files", 2000, "file population limit (must match pressd)")
		requests    = flag.Int("requests", 20000, "cap on requests issued (0 = until -duration)")
		concurrency = flag.Int("concurrency", 32, "closed-loop clients")
		rate        = flag.Float64("rate", 0, "open-loop Poisson arrival rate in req/s (0 = closed loop)")
		duration    = flag.Duration("duration", 10*time.Second, "run length: an open loop offers load this long; a closed loop stops here or at -requests, whichever comes first")
		hotspot     = flag.Float64("hotspot", 0, "Zipf-hotspot preset: draw each request from Zipf(alpha) over popularity ranks instead of the trace order (0 = off; 1.5-2 concentrates the head)")
		seed        = flag.Int64("seed", 1, "random seed")
		dissem      = flag.String("dissemination", "", "verify the cluster runs this strategy before driving it ("+cliflag.DisseminationNames()+"; empty = don't check)")
	)
	flag.Parse()
	if *targets == "" {
		log.Print("missing -targets")
		flag.Usage()
		os.Exit(2)
	}
	targetList := strings.Split(*targets, ",")
	if *dissem != "" {
		if err := verifyStrategy(targetList[0], *dissem); err != nil {
			log.Fatal(err)
		}
	}

	spec, err := trace.SpecByName(*traceName)
	if err != nil {
		log.Fatal(err)
	}
	if *files > 0 && *files < spec.NumFiles {
		spec.NumFiles = *files
	}
	if *requests > 0 && *requests < spec.NumRequests {
		spec.NumRequests = *requests
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		Targets:     targetList,
		Trace:       tr,
		Concurrency: *concurrency,
		Requests:    *requests,
		Rate:        *rate,
		Duration:    *duration,
		Hotspot:     *hotspot,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("requests:   %d (%d errors)\n", res.Requests, res.Errors)
	if res.Errors > 0 {
		fmt.Printf("errors:     timeout %d  refused %d  shed %d  server %d  other %d\n",
			res.ErrTimeout, res.ErrRefused, res.ErrShed, res.ErrServer, res.ErrOther)
	}
	fmt.Printf("elapsed:    %v\n", res.Elapsed)
	fmt.Printf("goodput:    %.1f req/s (successful)\n", res.Throughput)
	fmt.Printf("bytes:      %d\n", res.Bytes)
	fmt.Printf("latency:    mean %.2fms  std %.2fms  p50 %.2fms  p99 %.2fms  max %.2fms\n",
		res.LatencyMean*1e3, res.LatencyStd*1e3,
		res.LatencyP50*1e3, res.LatencyP99*1e3, res.LatencyMax*1e3)
	if len(res.TargetOK) > 1 {
		shares := make([]string, len(res.TargetOK))
		for i, n := range res.TargetOK {
			shares[i] = fmt.Sprintf("%d", n)
		}
		fmt.Printf("per-node:   ok [%s]  imbalance %.2fx\n", strings.Join(shares, " "), res.Imbalance)
	}
}

// verifyStrategy asks one cluster node's stats endpoint which
// dissemination strategy it runs and errors on a mismatch with want —
// the flag value is validated against the shared strategy surface
// first, so a typo fails before the network round trip.
func verifyStrategy(target, want string) error {
	if _, err := cliflag.DisseminationList(want); err != nil || want == "all" {
		return fmt.Errorf("bad -dissemination %q (choose from %s)", want, cliflag.DisseminationNames())
	}
	url := strings.TrimSuffix(target, "/") + "/_press/stats"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("strategy check: %w", err)
	}
	defer resp.Body.Close()
	// Read the body up front (capped: an error page can be arbitrarily
	// large) so every failure mode below can quote what the server
	// actually said instead of leaving the operator to re-curl it.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if err != nil {
		return fmt.Errorf("strategy check: reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("strategy check: %s returned %s: %s", url, resp.Status, excerpt(body))
	}
	var stats struct {
		Strategy string `json:"strategy"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("strategy check: decoding %s: %w (body: %s)", url, err, excerpt(body))
	}
	if stats.Strategy != want {
		return fmt.Errorf("cluster runs dissemination %s, not %s (%s said: %s); restart pressd or drop -dissemination",
			stats.Strategy, want, url, excerpt(body))
	}
	return nil
}

// excerpt flattens a response body onto one log line.
func excerpt(body []byte) string {
	s := strings.TrimSpace(string(body))
	s = strings.ReplaceAll(s, "\n", " ")
	if s == "" {
		return "(empty body)"
	}
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
