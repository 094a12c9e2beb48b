package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"press/cliflag"
	"press/core"
	"press/loadgen"
	"press/metrics"
	"press/netmodel"
	"press/server"
	"press/stats"
	"press/telemetry"
	"press/trace"
)

// overloadMaxRequests caps the synthesized trace and the closed-loop
// calibration burst: like -chaos, -overload drives a real cluster over
// loopback HTTP, so paper-scale request counts would run for minutes.
const overloadMaxRequests = 4000

// overloadRateSteps are the offered-rate multipliers of the calibrated
// saturation throughput. The interesting region is the knee: below 1x
// goodput tracks offered load, past it a controlled cluster holds
// goodput near saturation and sheds the excess promptly.
var overloadRateSteps = []float64{0.5, 1.0, 1.5, 2.0, 3.0}

// overloadShedTrigger is the cluster-wide shed rate (sheds/s per
// sampling window) that fires the flight recorder during a ramp. At the
// knee the controlled cluster sheds hundreds per second, so crossing 50
// reliably marks the first real shed burst while ignoring stragglers.
const overloadShedTrigger = 50

// overloadRun starts a real VIA cluster with overload control sized to
// the deadline and ramps an open-loop Poisson arrival process past its
// saturation point, one step per multiplier in overloadRateSteps. Each
// step reports client-side goodput and latency quantiles plus the
// cluster's own shed/expired/goodput deltas, exposing the
// goodput-vs-offered-load knee. With dissemination "all" the ramp repeats for every strategy,
// showing how much offered load each one absorbs before shedding.
//
// With incidentOut, each ramp runs a telemetry flight recorder sampling
// the cluster's registry at 250ms; the first shed burst past the knee
// dumps the goodput-over-time series and event log as a JSON incident
// report (or the last ramp dumps at end of run if no burst fired).
func overloadRun(traceName string, requests, nodes int, seed int64, version, dissem string,
	incidentOut string, stepDur, deadline time.Duration) error {
	if nodes < 2 {
		return fmt.Errorf("overload needs at least 2 nodes")
	}
	strategies, err := cliflag.DisseminationList(dissem)
	if err != nil {
		return err
	}
	spec, err := trace.SpecByName(traceName)
	if err != nil {
		return err
	}
	if requests <= 0 || requests > overloadMaxRequests {
		requests = overloadMaxRequests
	}
	if requests < spec.NumRequests {
		spec.NumRequests = requests
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		return err
	}
	ver, err := netmodel.VersionByName(version)
	if err != nil {
		return err
	}

	fmt.Printf("overload run: %s, %d-node VIA cluster on loopback, deadline %v, %v per step\n",
		tr.Name, nodes, deadline, stepDur)
	// Shared across ramps so a real shed-burst incident from an early
	// strategy is not overwritten by a later ramp's end-of-run fallback.
	var incidents atomic.Int32
	for i, strategy := range strategies {
		last := i == len(strategies)-1
		if err := overloadRamp(tr, nodes, seed, ver, strategy, stepDur, deadline,
			incidentOut, &incidents, last); err != nil {
			return err
		}
	}
	return nil
}

// overloadRamp runs the calibration burst and the rate ramp against one
// cluster. The cluster is torn down between strategies so each ramp
// starts from cold caches and a fresh saturation estimate.
func overloadRamp(tr *trace.Trace, nodes int, seed int64, ver netmodel.Version,
	strategy core.Strategy, stepDur, deadline time.Duration,
	incidentOut string, incidents *atomic.Int32, lastRamp bool) error {
	var reg *metrics.Registry
	var plane *telemetry.Plane
	if incidentOut != "" {
		reg = metrics.NewRegistry()
		plane = telemetry.New(telemetry.Config{
			Registry: reg,
			Interval: 250 * time.Millisecond,
			Trigger:  telemetry.TriggerConfig{ShedRate: overloadShedTrigger},
		})
		plane.OnIncident(func(inc *telemetry.Incident) {
			incidents.Add(1)
			if err := writeIncidentFile(inc, incidentOut); err != nil {
				fmt.Printf("incident dump: %v\n", err)
				return
			}
			fmt.Printf("incident (%s, dissemination %s): wrote %s\n", inc.Reason, strategy, incidentOut)
		})
		// Disarmed through startup and calibration: the closed-loop
		// burst deliberately saturates the cluster, and its sheds must
		// not burn the trigger before the ramp it is calibrating.
		plane.SetArmed(false)
		plane.Start()
		defer plane.Stop()
	}
	cl, err := server.Start(server.Config{
		Nodes:         nodes,
		Trace:         tr,
		Transport:     server.TransportVIA,
		Version:       ver,
		Dissemination: strategy,
		// Small caches and a real (simulated) disk penalty give the
		// cluster a saturation point the generator can actually reach
		// over loopback.
		CacheBytes: 1 << 20,
		DiskDelay:  2 * time.Millisecond,
		Overload: server.OverloadConfig{
			RequestTimeout: deadline,
			// Queues sized to the deadline, not to memory: a deep accept
			// queue admits requests that are doomed to expire. The CoDel
			// delay target sheds on sustained queue delay even when the
			// occupancy bound alone would admit seconds of backlog.
			AcceptQueue:      64,
			DiskQueue:        32,
			QueueDelayTarget: deadline / 2,
		},
		Metrics:   reg,
		Telemetry: plane,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	targets := make([]string, nodes)
	for i, a := range cl.Addrs() {
		targets[i] = "http://" + a
	}
	ctx := context.Background()

	// Closed-loop calibration: as-fast-as-possible clients measure the
	// cluster's saturation throughput (and warm its caches) so the ramp
	// multipliers mean the same thing on any machine.
	cal, err := loadgen.Run(ctx, loadgen.Config{
		Targets:     targets,
		Trace:       tr,
		Concurrency: 4 * nodes,
		Requests:    len(tr.Requests),
		Seed:        seed,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		return err
	}
	saturation := cal.Throughput
	if saturation < 100 {
		saturation = 100 // floor: keep the ramp meaningful on a degenerate run
	}
	fmt.Printf("\ndissemination %s: saturation ~%.0f req/s (closed-loop calibration, %d requests)\n",
		strategy, saturation, cal.Requests)
	plane.SetArmed(true)

	t := stats.NewTable("Offered", "req/s", "Issued", "Goodput/s", "p50 ms", "p99 ms",
		"Shed", "Timeout", "Errs", "Srv shed", "Expired")
	before := cl.Stats()
	for i, mult := range overloadRateSteps {
		rate := mult * saturation
		res, err := loadgen.Run(ctx, loadgen.Config{
			Targets:  targets,
			Trace:    tr,
			Rate:     rate,
			Duration: stepDur,
			Seed:     seed + int64(i) + 1,
			// Generous client timeout: overload control answers promptly
			// (503 or within-deadline data), so timeouts here mean the
			// cluster lost control of its queues.
			Timeout: 4 * deadline,
		})
		if err != nil {
			return err
		}
		after := cl.Stats()
		goodput := float64(res.Requests-res.Errors) / res.Elapsed.Seconds()
		t.AddRowf(fmt.Sprintf("%.1fx", mult), fmt.Sprintf("%.0f", rate), res.Requests,
			fmt.Sprintf("%.0f", goodput),
			fmt.Sprintf("%.1f", res.LatencyP50*1e3), fmt.Sprintf("%.1f", res.LatencyP99*1e3),
			res.ErrShed, res.ErrTimeout, res.Errors,
			after.Nodes.Shed-before.Nodes.Shed,
			after.Nodes.DeadlineExpired-before.Nodes.DeadlineExpired)
		before = after
	}
	fmt.Print(t)
	// Teardown's transients must not overwrite a real shed-burst
	// report; if no ramp triggered at all, the last one still dumps
	// the full series so -incident-out always produces a report.
	plane.SetArmed(false)
	if plane != nil && lastRamp && incidents.Load() == 0 {
		plane.Stop()
		plane.DumpIncident("end of overload ramp")
	}
	return nil
}
