package cluster

import (
	"time"

	"press/core"
)

// snapshot captures a node's busy times at measurement start so the
// result can cover only the measurement window.
type snapshot struct {
	cpuComm    time.Duration
	cpuService time.Duration
	intTX      time.Duration
	intRX      time.Duration
}

func busySnapshot(n *node) snapshot {
	return snapshot{
		cpuComm:    n.cpu.BusyTime(classComm),
		cpuService: n.cpu.BusyTime(classService),
		intTX:      n.intTX.TotalBusy(),
		intRX:      n.intRX.TotalBusy(),
	}
}

func (s *simState) result() *Result {
	r := &Result{
		TraceName: s.cfg.Trace.Name,
		Combo:     s.cfg.Combo.Name,
		Version:   s.cfg.Version.Name,
		Strategy:  s.cfg.Dissemination.String(),
		Nodes:     s.cfg.Nodes,
		Requests:  s.measCompleted,
		Msgs:      s.msgs,
		Reasons:   s.reasons,
	}
	// The window ends at the last measured completion, not the final
	// event: trailing timer ticks (replication scans, telemetry polls)
	// run after the workload drains and must not stretch Elapsed.
	end := s.measEnd
	if end < s.measStart {
		end = s.sim.Now()
	}
	r.Elapsed = time.Duration(end - s.measStart)
	if r.Elapsed > 0 {
		r.Throughput = float64(r.Requests) / r.Elapsed.Seconds()
	}
	for i, n := range s.nodes {
		base := s.baseline[i]
		r.CPUComm += n.cpu.BusyTime(classComm) - base.cpuComm
		r.CPUService += n.cpu.BusyTime(classService) - base.cpuService
		r.InternalNIC += n.intTX.TotalBusy() - base.intTX
		r.InternalNIC += n.intRX.TotalBusy() - base.intRX
	}
	comm := r.CPUComm + r.InternalNIC
	if denom := comm + r.CPUService; denom > 0 {
		r.CommFraction = float64(comm) / float64(denom)
	}
	r.LatencyMean = s.latency.Mean()
	r.LatencyStd = s.latency.Std()
	r.LatencyMax = s.latencyMax
	if lat := s.latHist.Snapshot(); lat.Count > 0 {
		r.LatencyP50 = lat.Quantile(0.50) / 1e9
		r.LatencyP99 = lat.Quantile(0.99) / 1e9
	}
	r.LocalHits = s.localHits
	r.RemoteHits = s.remoteHits
	r.DiskReads = s.diskReads
	r.ReplicaPushes = s.replicaPushes
	r.ReplicaDrops = s.replicaDrops
	r.CopiedBytes = s.copiedBytes
	r.RMWCount = s.rmwCount
	if r.Requests > 0 {
		r.ForwardedFraction = float64(s.forwarded) / float64(r.Requests)
		r.HitRate = float64(s.localHits+s.remoteHits) / float64(r.Requests)
	}
	// Publish end-of-run utilization gauges when a registry is attached:
	// the per-node CPU/disk/NIC load the paper's saturation arguments
	// rest on.
	for i, n := range s.nodes {
		ins := s.ins[i]
		ins.cpuUtil.Set(n.cpu.Utilization())
		ins.diskUtil.Set(n.disk.Utilization())
		ins.nicUtil.Set((n.intTX.Utilization() + n.intRX.Utilization()) / 2)
	}
	return r
}

// MsgTable renders the message accounting in the layout of the paper's
// Tables 2 and 4: counts in thousands, bytes in MB, average sizes in
// bytes.
func (r *Result) MsgTable() [][3]float64 {
	out := make([][3]float64, core.NumMsgTypes)
	for t := core.MsgType(0); t < core.NumMsgTypes; t++ {
		out[t] = [3]float64{
			float64(r.Msgs.Count[t]) / 1e3,
			float64(r.Msgs.Bytes[t]) / 1e6,
			r.Msgs.AvgSize(t),
		}
	}
	return out
}
