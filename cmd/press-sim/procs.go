package main

import (
	"context"
	"fmt"
	"time"

	"press/loadgen"
	"press/server/procharness"
)

// procsRun is the multi-process availability scenario: N pressd
// processes mesh over loopback, closed-loop loadgen clients replay the
// harness's trace against them (2 s patience per request), the
// hottest cacher is killed -9 mid-drive and restarted, and the run
// reports availability, the epoch turnover, and rejoin convergence —
// the crash-restart experiment from EXPERIMENTS.md on live processes
// instead of the in-process chaos plan.
func procsRun(procs int, traceName, version, dissem, transport string, dur time.Duration) error {
	if procs < 2 {
		return fmt.Errorf("-procs needs at least 2 processes, got %d", procs)
	}
	h, err := procharness.Start(procharness.Options{
		Nodes:     procs,
		Transport: transport,
		Version:   version,
		Strategy:  dissem,
		TraceName: traceName,
	})
	if err != nil {
		return err
	}
	defer h.Close()

	all := make([]int, procs)
	urls := make([]string, procs)
	for i := range all {
		all[i] = i
		urls[i] = h.URL(i)
	}
	fmt.Printf("spawned %d node processes (%s transport, strategy %s)\n", procs, transport, dissem)
	if err := h.WaitConverged(20*time.Second, all...); err != nil {
		return err
	}
	fmt.Println("mesh converged; driving")
	seg := dur / 3

	var requests, errs int64
	drive := func(targets []string) error {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Targets:     targets,
			Trace:       h.Trace(),
			Concurrency: 8,
			Duration:    seg,
			Timeout:     2 * time.Second,
		})
		if err != nil {
			return err
		}
		requests += res.Requests
		errs += res.Errors
		return nil
	}
	if err := drive(urls); err != nil {
		return err
	}

	victim, hottest := 0, int64(-1)
	epochs := make([]uint64, procs)
	for _, id := range all {
		ns, err := h.Stats(id)
		if err != nil {
			return err
		}
		epochs[id] = ns.Epoch
		if ns.Requests > hottest {
			victim, hottest = id, ns.Requests
		}
	}
	survivorURLs := make([]string, 0, procs-1)
	survivors := make([]int, 0, procs-1)
	for _, id := range all {
		if id != victim {
			survivors = append(survivors, id)
			survivorURLs = append(survivorURLs, urls[id])
		}
	}
	fmt.Printf("killing hottest cacher: node %d (%d requests) with SIGKILL mid-drive\n", victim, hottest)

	killAt := time.AfterFunc(seg/4, func() { _ = h.Kill(victim) })
	defer killAt.Stop()
	if err := drive(survivorURLs); err != nil {
		return err
	}

	fmt.Printf("restarting node %d\n", victim)
	if err := h.Restart(victim); err != nil {
		return err
	}
	if err := h.WaitConverged(20*time.Second, all...); err != nil {
		return err
	}
	if err := drive(urls); err != nil {
		return err
	}

	avail := 1.0
	if requests > 0 {
		avail = float64(requests-errs) / float64(requests)
	}
	ns, err := h.Stats(victim)
	if err != nil {
		return err
	}
	var staleDrops int64
	for _, id := range all {
		ss, err := h.Stats(id)
		if err != nil {
			return err
		}
		staleDrops += ss.StaleEpochDrops
	}
	fmt.Printf("\navailability: %.4f (%d ok, %d errors)\n", avail, requests-errs, errs)
	if ns.Epoch != 0 {
		// Epoch accounting rides the TCP mesh handshake; the VIA bridge
		// orders lives with per-process id spaces instead.
		fmt.Printf("epoch turnover: node %d rejoined at %d (previous life %d)\n", victim, ns.Epoch, epochs[victim])
		fmt.Printf("stale-epoch frames dropped cluster-wide: %d\n", staleDrops)
		for _, id := range survivors {
			ss, err := h.Stats(id)
			if err != nil {
				return err
			}
			if len(ss.PeerEpochs) <= victim || ss.PeerEpochs[victim] != ns.Epoch {
				return fmt.Errorf("node %d did not adopt node %d's new epoch %d: rejoin did not converge",
					id, victim, ns.Epoch)
			}
		}
		fmt.Println("all survivors accepted the new epoch; rejoin converged")
	} else {
		fmt.Println("rejoin converged")
	}
	if avail < 0.99 {
		return fmt.Errorf("availability %.4f below the 0.99 floor", avail)
	}
	return nil
}
