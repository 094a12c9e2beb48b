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

# bench runs the press-bench performance ledger: six real-cluster
# workloads, end-to-end and per-layer metrics, into bench/out/result.json
# (bench/README.md). The simulator sweeps the ledger does not cover are
# press-sim experiments: dirsweep, hotspot (add -json for machine-
# readable output).
bench:
	bash bench/run.sh

# check is the full gate: vet, build, race-enabled tests, presslint,
# benchmark smoke.
check:
	sh scripts/check.sh
