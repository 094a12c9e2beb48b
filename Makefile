# press — build and verification entry points.

GO ?= go

.PHONY: build test race lint check benchsmoke bench procsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/presslint ./...

# procsmoke is the multi-process crash-restart gate: three real node
# processes, one killed -9 mid-run and restarted, availability and
# rejoin convergence asserted under the race detector.
procsmoke:
	$(GO) test -race -count=1 -timeout 240s -run 'TestProcSmoke' ./server/procharness

# benchsmoke builds every benchmark (failing on compile errors) and
# runs the cheap via-layer send pair once.
benchsmoke:
	$(GO) test -run '^$$' -bench '^$$' ./...
	$(GO) test -run '^$$' -bench BenchmarkViaSendMetrics -benchtime 1x .

# bench records the directory-scaling baseline (directory messages per
# request vs cluster size, broadcast vs sharded vs gossip) into
# BENCH_directory.json, the telemetry-plane overhead baseline (sampler
# off/on, event hot path, exposition render) into BENCH_telemetry.json,
# and the hot-object replication baseline (goodput/p99 across Zipf
# exponents, replication off vs on) into BENCH_replication.json. The
# tracing/metrics on-off overhead is in the press-bench ledger
# (bench/README.md: driver.trace_overhead_frac, via.send_4b_*).
bench:
	sh scripts/bench_directory.sh BENCH_directory.json
	sh scripts/bench_telemetry.sh BENCH_telemetry.json
	sh scripts/bench_replication.sh BENCH_replication.json

# check is the full gate: vet, build, race-enabled tests, presslint,
# benchmark smoke.
check:
	sh scripts/check.sh
