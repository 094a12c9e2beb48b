// Package press benchmarks regenerate every table and figure of the
// paper's evaluation: run `go test -bench=. -benchmem` and compare the
// reported metrics against EXPERIMENTS.md. They report simulated request
// throughput; wall-clock numbers for the runnable cluster come from the
// press-bench ledger (`bash bench/run.sh`).
package press

import (
	"fmt"
	"testing"
	"time"

	"press/core"
	"press/experiments"
	"press/metrics"
	"press/model"
	"press/trace"
	"press/tracing"
	"press/via"
)

// benchOptions keeps the per-iteration simulation cost modest; raise
// Requests (e.g. -benchtime with a custom main) for paper-scale runs.
func benchOptions() experiments.Options {
	return experiments.Options{Requests: 60000, Seed: 1}
}

// BenchmarkFigure1 regenerates Figure 1: share of time on intra-cluster
// communication under TCP/FE, per trace.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.CommFraction*100, r.Trace+"_comm_%")
			}
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: throughput per combination.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var bw, ov float64
			for _, r := range rows {
				bw += r.BandwidthEffect()
				ov += r.OverheadEffect()
			}
			b.ReportMetric(bw/4*100, "avg_bandwidth_gain_%")
			b.ReportMetric(ov/4*100, "avg_overhead_gain_%")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: dissemination strategies.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			b.ReportMetric(r.Throughput["PB"], "clarknet_PB_req/s")
			b.ReportMetric(r.Throughput["L1"], "clarknet_L1_req/s")
			b.ReportMetric(r.Throughput["NLB"], "clarknet_NLB_req/s")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: message accounting per strategy.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, e := range entries {
				b.ReportMetric(float64(e.Msgs.Count[core.MsgLoad])/1e3, e.Strategy+"_load_Kmsgs")
			}
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: V1..V5 gains over V0.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var v4, v5 float64
			for _, r := range rows {
				v4 += r.Gain[3]
				v5 += r.Gain[4]
			}
			b.ReportMetric(v4/4*100, "avg_V4_gain_%")
			b.ReportMetric(v5/4*100, "avg_V5_gain_%")
		}
	}
}

// BenchmarkTable4 regenerates Table 4: message accounting per version.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Table4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			byName := map[string]int64{}
			for _, e := range entries {
				byName[e.Version] = e.Msgs.Count[core.MsgFile]
			}
			b.ReportMetric(float64(byName["V3"])/float64(byName["V2"]), "V3/V2_file_msg_ratio")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: summary of contributions.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var total float64
			for _, r := range rows {
				total += r.TotalGain()
			}
			b.ReportMetric(total/4*100, "avg_userlevel_gain_%")
		}
	}
}

// BenchmarkValidation regenerates the Section 4.2 model validation.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sum float64
			for _, r := range rows {
				sum += r.Ratio
			}
			b.ReportMetric(sum/float64(len(rows)), "avg_model/sim_ratio")
		}
	}
}

// Model figures 8-13: pure analytical solves.
func benchmarkSurface(b *testing.B, fn func() (model.Surface, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gain, _, _ := s.Max()
			b.ReportMetric((gain-1)*100, "max_gain_%")
		}
	}
}

func BenchmarkFigure8(b *testing.B)  { benchmarkSurface(b, model.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchmarkSurface(b, model.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchmarkSurface(b, model.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchmarkSurface(b, model.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchmarkSurface(b, model.Figure12) }
func BenchmarkFigure13(b *testing.B) { benchmarkSurface(b, model.Figure13) }

// Ablation benches for the design choices called out in DESIGN.md.

func BenchmarkAblationRMWSingleMessage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v2, v3, v3s, err := experiments.AblationRMWSingleMessage(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(v2, "V2_req/s")
			b.ReportMetric(v3, "V3_req/s")
			b.ReportMetric(v3s, "V3_single_msg_req/s")
		}
	}
}

func BenchmarkAblationLoadRMW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg, rmw, err := experiments.AblationLoadRMW(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric((rmw/reg-1)*100, "L1_rmw_gain_%")
		}
	}
}

func BenchmarkAblationFlowBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFlowBatch(benchOptions(), []int{1, 4, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverloadThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOverloadThreshold(benchOptions(), []int{40, 80, 160}); err != nil {
			b.Fatal(err)
		}
	}
}

// The real stack is measured by the press-bench ledger (bench/README.md):
// end to end per transport and version, and per layer down to the VIA
// send and RDMA-write costs. What stays here are the two on/off overhead
// pairs scripts/check.sh gates.

// BenchmarkViaSendMetricsOff and ...On bracket the cost of the
// observability layer on the VIA send path. Off (no registry) is the
// default everywhere; the nil-instrument no-ops must stay within noise
// of the pre-metrics send path, and On shows the price of enabling it.
func BenchmarkViaSendMetricsOff(b *testing.B) {
	benchViaSend(b, 4)
}

func BenchmarkViaSendMetricsOn(b *testing.B) {
	benchViaSend(b, 4, via.WithMetrics(metrics.NewRegistry()))
}

// BenchmarkServeTracingOff and ...On bracket the cost of the tracing
// layer on the request serve path. Off drives the exact span
// choreography of one served request — root, accept-queue, dispatch,
// net-send, reply — against a nil collector, the default, and must do
// zero allocations; On records the same spans into a live collector and
// shows the price of enabling tracing.
func BenchmarkServeTracingOff(b *testing.B) {
	benchServeTracing(b, nil)
}

func BenchmarkServeTracingOn(b *testing.B) {
	tr := tracing.New(tracing.WithSampleRate(1))
	benchServeTracing(b, tr.Collector(0))
}

func benchServeTracing(b *testing.B, c *tracing.Collector) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := c.StartTrace("request")
		root.AnnotateStr("file", "/bench.html")
		acc := root.StartChild("accept-queue")
		acc.End()
		dsp := root.StartChild("dispatch")
		dsp.Annotate("service", 1)
		dsp.End()
		ns := c.StartSpan("net-send", root.Trace(), root.ID())
		ns.End()
		rep := root.StartChild("reply")
		rep.Annotate("bytes", 4096)
		rep.End()
		root.End()
	}
}

func benchViaSend(b *testing.B, size int, opts ...via.FabricOption) {
	f := via.NewFabric(opts...)
	defer f.Close()
	na, err := f.CreateNIC("a")
	if err != nil {
		b.Fatal(err)
	}
	nb, err := f.CreateNIC("b")
	if err != nil {
		b.Fatal(err)
	}
	ln, err := nb.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	vb, err := nb.CreateVI(via.ReliableDelivery, 256)
	if err != nil {
		b.Fatal(err)
	}
	va, err := na.CreateVI(via.ReliableDelivery, 256)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		done <- err
	}()
	if err := va.Connect("b", "bench"); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	sreg, err := na.RegisterMemory(make([]byte, size))
	if err != nil {
		b.Fatal(err)
	}
	rreg, err := nb.RegisterMemory(make([]byte, size))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := via.MustDescriptor(via.Segment{Region: rreg, Offset: 0, Len: size})
		if err := vb.PostRecv(rd); err != nil {
			b.Fatal(err)
		}
		sd := via.MustDescriptor(via.Segment{Region: sreg, Offset: 0, Len: size})
		if err := va.PostSend(sd); err != nil {
			b.Fatal(err)
		}
		if err := sd.Wait(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the four synthetic traces and checks the
// calibration cost.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range trace.Table1Specs() {
			spec.NumRequests = 50000
			tr, err := trace.Synthesize(spec)
			if err != nil {
				b.Fatal(err)
			}
			st := tr.Stats()
			if i == 0 {
				b.ReportMetric(st.AvgFileKB, fmt.Sprintf("%s_avg_file_KB", spec.Name))
			}
		}
	}
}

// BenchmarkLocalityBenefit quantifies the motivation for
// locality-conscious servers: PRESS vs a content-oblivious baseline at
// a cache size well below the working set.
func BenchmarkLocalityBenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.LocalityBenefit(benchOptions(), []int64{32 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p := pts[0]
			b.ReportMetric(p.Oblivious, "oblivious_req/s")
			b.ReportMetric(p.PRESS, "press_req/s")
		}
	}
}

// BenchmarkNodeSweep cross-checks the simulator against the model's
// Figure 8 trend.
func BenchmarkNodeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.NodeSweep(benchOptions(), []int{2, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].Gain*100, "gain_at_32_nodes_%")
		}
	}
}
