#!/bin/sh
# check.sh — the repo's verification gate: vet, build, race-enabled
# tests, and the project's own static analysis. Run from the repo root
# (make check does).
set -eu

# race_suites runs one uncached -race pass per row on stdin. A row is
# "[flags ]pattern|packages", split at the last "|" because patterns
# are alternations; the pattern "-" runs the whole package. Lines
# starting with "#" say why the suites under them earn a second,
# uncached pass after the cached "go test -race ./..." below.
race_suites() {
    while read -r row; do
        case $row in '' | '#'*) continue ;; esac
        pkgs=${row##*|} run=${row%|*}
        pattern=${run##* } flags=
        [ "$pattern" = "$run" ] || flags=${run% *}
        if [ "$pattern" = - ]; then set --; else set -- -run "$pattern"; fi
        echo "==> go test -race -count=1 $flags $* $pkgs"
        go test -race -count=1 $flags "$@" $pkgs
    done
}

# zero_alloc <bench> <pkg> <message> is the dynamic half of a
# free-when-off proof: run the -bench pattern and fail with the message
# unless its Off benchmark reports 0 allocs/op.
zero_alloc() {
    out=$(go test -run '^$' -bench "$1" -benchtime 1000x -benchmem "$2")
    echo "$out"
    if ! echo "$out" | grep "^${1%Off}Off" | grep -q '	 *0 allocs/op'; then
        echo "check: ${1%Off}Off allocates; $3" >&2
        exit 1
    fi
}

# max_bytes_op and max_allocs_op <bench> <pkg> <limit> <message> are
# allocation budgets on an enabled path: run the benchmark and fail with
# the message when it (its worst sub-benchmark) reports more than <limit>
# B/op or allocs/op.
max_per_op() {
    unit=$1
    shift
    out=$(go test -run '^$' -bench "$1" -benchtime 1000x -benchmem "$2")
    echo "$out"
    got=$(echo "$out" | awk -v b="$1" -v u="$unit" 'index($1, b) == 1 { for (i = 2; i <= NF; i++) if ($i == u && (worst == "" || $(i - 1) + 0 > worst)) worst = $(i - 1) + 0 } END { print worst }')
    if [ -z "$got" ] || [ "$got" -gt "$3" ]; then
        echo "check: $1 reports ${got:-?} $unit, budget $3; $4" >&2
        exit 1
    fi
}
max_bytes_op() { max_per_op B/op "$@"; }
max_allocs_op() { max_per_op allocs/op "$@"; }

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check: gofmt would change:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# pressd and the rest build off Linux too: what only Unix has (SIGUSR1,
# nanosleep, timer slack) sits behind build tags with a portable twin.
for goos in windows darwin; do
    echo "==> GOOS=$goos go build ./..."
    GOOS=$goos go build ./...
done

echo "==> go test -race ./..."
go test -race ./...

# The ledger (bench/) is its own module that BENCHMARK.json's command
# builds against this tree, and ./... above does not reach it: vet and
# test it here, so a change to the exported API it reads (server.Config,
# Stats, NodeStats) fails this gate instead of the benchmark pipeline.
echo "==> bench module: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

race_suites <<'EOF'
# The metrics package is all lock-free concurrency: let the race
# detector see every interleaving attempt fresh.
-|./metrics
# The tracing collector is one atomic ring per node fed by every server
# goroutine; same treatment, plus the cross-node stitching tests that
# live with the server and simulator.
-|./tracing
TestClusterTrac|./server
TestRunTracing|./cluster
# The fault-tolerance layer is where the concurrency is hardest: the
# health state machine, failover of in-flight forwards, and fabric-level
# chaos all race the main loops by construction. Every way a forward
# ends, and the dead peer nothing is queued for, ride along.
Chaos|Failover|Health|ForwardEndsOnce|NoSendToDeadPeer|./server/... ./cluster/...
# The overload layer races admission, deadline expiry, and brownout
# against the main loops at 2x saturation by design, and a full accept
# queue sheds from the HTTP goroutine; the open-loop generator tests
# ride along.
TestOverload|TestBrownout|TestFullQueueSheds|./server
TestOpenLoop|./loadgen
# The telemetry plane races its sampler (ticker goroutine) against
# event producers (server main loops) and incident dumps (signal
# goroutine) by design; plus the cluster endpoints and simulated-clock
# integrations that live with the server and simulator.
-|./telemetry
TestMetricsEndpoint|TestClusterTelemetry|./server
TestRunTelemetry|./cluster
# The dissemination seam (consistent-hash ring ownership, sharded
# directory lookup/invalidation, the load tracker) runs concurrently
# with the chaos harness and the server main loops: the ShardDir
# machine's own rule and property tests, then its two drivers.
TestShardDir|./core
TestRing|TestStrategy|TestLoadTracker|./cache ./core ./server
TestSimSharded|./cluster
# Hot-object replication races the push/pull/drop policy against the
# failover machinery by design (crash the hottest cacher mid-drive,
# fail pendings over to surviving replicas): the policy machine's own
# table tests, then its two drivers — the server suites and the
# simulator's — and the simulator↔real parity test, which runs a real
# cluster beside the simulator on one trace, once per directory form.
TestReplicator|./core
TestReplication|TestReplicated|TestChaosReplica|TestHotspotCrash|./server
TestSimReplication|./cluster
TestSimRealParity|.
# A forwarded reply's receive buffer changes hands four times (transport,
# main loop, HTTP handler, pool) and a release one hand too early is a
# recycled page under a reader: ten fresh passes of the ownership suites
# on all three receive paths.
-count=10 TestRecvBufNotRecycledUnderReader|TestReplicaPullKeepsItsBuffer|TestFailoverMidReassembly|TestHandleFileChunk|./server
# Credit conservation is an invariant of every VIA channel (a refused
# write gives its slot back, a posted one keeps it) that only shows when
# refusals and acks interleave, and a V5 reply whose cache page was
# deregistered under it gives back its refused zero-copy claim and goes
# out staged: ten fresh passes.
-count=10 TestCreditConservation|TestFileReplyOutlivesItsPage|./server
# A recycled request is the new way to serve the wrong bytes: handed to
# the next client while a main loop still holds it; so is the main loop's
# one inbound Message, kept by a handler past the next receive. Every way
# a request ends, from eight clients at once, the 4-node legs on all
# three receive paths, ten fresh passes.
-count=10 TestClientRequestRecycleStress|./server
# A descriptor's completion signal is made once and outlives the wait
# that took it, so only a fresh look at the status may end a wait: a
# stale signal against a reposted receive, and a one-copy post that
# allocates nothing, ten fresh passes.
-count=10 TestWaitIgnoresStaleSignal|TestPostAllocs|./via
# A post moves on the goroutine that posts it and is done when it
# returns: a slowed link's penalty delays only its poster, posts keep
# their order from several posters at once, crossed one-copy transfers
# between two regions, a Close during a penalty fails the post, and a
# bridge write to a peer that stops reading fails at its deadline. The
# penalty's wait, which is also the disk's, blocks its thread off the
# CPU, is never short and seldom long, and hands the thread back with
# its timer slack. Ten fresh passes.
-count=10 TestPostCompletesInlineOnIdleLink|TestSlowedPostDelaysOnlyItsPoster|TestConcurrentPostsKeepPostOrder|TestCrossedTransfersDoNotDeadlock|TestCloseDuringPenaltyFailsPost|TestSlowNodeDelaysDelivery|TestWaitIgnoresStaleSignal|TestBridgeWriteToWedgedPeerFails|TestDelayWaitsOffCPU|TestDelayIsSharp|TestDelayRestoresTimerSlack|./via
# The VIA bridge is one TCP connection per channel, and its setup races
# the real transport: the acceptor's first send against its REPLY, a
# dial against the peer's Proxy call and listener, a lost connection
# against the breaks it must cause. Ten fresh passes.
-count=10 Bridge|./via
# What a peer registers follows its version: the file staging area is
# registered by a sender under sendMu and released by a reconnect's
# retirePeer, a V0 and a V5 end (or two ends with different frame
# bounds) fail each other's setup by name, four nodes' caches and NICs
# share one Store's bytes, and two VIA processes come up in either
# order through the accept loop and Reconnect, one dial per peer at a
# time: three fresh passes.
-count=3 TestPeerFootprint|TestViaSetupVersionMismatch|TestClusterSharesOneStore|TestViaProcessLateJoin|TestViaOneDialPerPeer|./server
EOF

# core holds the mechanisms the simulator and the server share (Policy,
# LoadTracker, Replicator, ShardDir): it must know neither of them, nor a
# transport, nor the wall clock — time is an argument.
echo "==> core stays driver-agnostic"
if go list -f '{{join .Imports "\n"}}' ./core | grep -E '^press/(server|cluster|eventsim|via)$'; then
    echo "check: core imports a driver package" >&2
    exit 1
fi
if grep -n 'time\.Now' $(ls core/*.go | grep -v _test.go); then
    echo "check: core reads the wall clock" >&2
    exit 1
fi

# Load information travels the paper's ways only: piggy-backed,
# broadcast past a threshold, or not at all, each node holding one
# core.LoadTracker. The epidemic gossip strategy and the interface that
# existed to plug it in stay gone.
echo "==> load information has one mechanism"
if grep -nE 'EpidemicGossip|GossipView|Disseminator|GossipEntryBytes|gossipTick|"GOSSIP"' \
    $(find core server cluster experiments cliflag cmd -name '*.go' ! -name '*_test.go'); then
    echo "check: a second load-information mechanism is back" >&2
    exit 1
fi

# A forward leaves the pending table in one place (Node.leavePending):
# every ending and every failover goes through it, so the pace sample
# and the span can never be skipped by a new exit.
echo "==> one exit from pending"
exits=$(cat $(ls server/*.go | grep -v _test.go) | grep -c 'delete(n.pending')
if [ "$exits" -ne 1 ]; then
    echo "check: delete(n.pending appears $exits times in server/, want 1" >&2
    exit 1
fi

# A peer's fate is one table (server/peers.go): health, brownout pace
# and last load, which it clears itself when the peer dies or comes
# back. The tracker, the pace, their published copies and the node's
# hand reconciliation of them stay gone.
echo "==> a peer's fate has one table"
if grep -nE 'healthTracker|peerPace|ovResetPeer|brownedPub|pickFailover|peerLoad|degFlag' \
    $(ls server/*.go | grep -v _test.go); then
    echo "check: server/ keeps a peer's state outside its peer table again" >&2
    exit 1
fi

# Overload control is how a node runs, not an option: no switch, no
# unbounded queue.
echo "==> overload control has no off switch"
if grep -n 'ov\.on\|Overload\.Enabled\|newUnboundedQueue' server/*.go; then
    echo "check: server/ has an overload-off path again" >&2
    exit 1
fi

# The process harness builds no node of its own: every child is pressd,
# run with pressd's command line, so the node the proc tests kill is the
# node that ships.
echo "==> the process harness runs pressd"
if grep -n 'StartNode\|SpecEnv\|json.Marshal' server/procharness/*.go; then
    echo "check: server/procharness builds a node of its own again" >&2
    exit 1
fi

# The bridge is a stream, one TCP connection per VI channel: the
# datagram wire and what it rebuilt (retransmission, the pre-bind
# queue, per-life id seeding) stay gone.
echo "==> the VIA bridge has no datagram wire"
if grep -n 'PacketConn\|maxUDPPayload\|udpConnectRetry\|bChanQueueMax\|nextTok' via/*.go; then
    echo "check: via/ rebuilds a reliable wire over datagrams again" >&2
    exit 1
fi

# The software VIA provides what PRESS runs: reliable delivery and
# node-level faults. Unreliable service, the lossy and shaped fabric,
# pairwise partitions and the NIC options nothing set stay gone.
echo "==> via offers one service level"
if grep -nE 'Unreliable|WithLoss|WithSeed|WithLatency|WithBandwidth|WithWorkDepth|transferDelay|lossRate|ReliabilitySupport|func \(f \*Fabric\) Partition' $(ls via/*.go | grep -v _test.go); then
    echo "check: via/ offers a second service level or a lossy fabric again" >&2
    exit 1
fi

# A node has one address, which its VIA bridge binds on -transport via,
# and a VI channel comes up one way: Reconnect dials it, the accept loop
# admits it. A second address list stays gone.
echo "==> one address per node"
if grep -nE 'ViaAddrs|via-peers|viaAddrs' \
    $(find server pressd cmd -name '*.go' ! -name '*_test.go'); then
    echo "check: a second per-node address list is back" >&2
    exit 1
fi

# A post completes before it returns: the NIC has no engine goroutine
# or work queue, a send no later completion to report (no send CQ, wait
# or pending count), and the server no completion wait to time out, no
# lazy reap, no RMWTimeout and no "posted" result beside the write's
# error.
echo "==> a post completes before it returns"
if grep -nE 'func \(n \*NIC\) engine|workItem|via_workq_depth|WaitTimer|SendWait|SetSendCQ|sendDone|sendCQ|sendPending|sendCompleted' $(ls via/*.go | grep -v _test.go) ||
    grep -nE 'RMWTimeout|\.lazy\b|func \(w \*outWrite\) (reap|idle)|posted bool|c\.Send\b' \
        $(find server pressd cmd -name '*.go' ! -name '*_test.go'); then
    echo "check: an asynchronous post completion is back" >&2
    exit 1
fi

# A modelled device delay (the disk, a slowed link) waits off the CPU:
# via's defaultSleep blocks its thread in the kernel. A wait that spins
# on the clock, yielding between looks, charges the disk to the
# processor and stays gone.
echo "==> a modelled delay waits off the CPU"
if grep -nE 'runtime\.Gosched' $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); then
    echo "check: non-test code spins on runtime.Gosched again" >&2
    exit 1
fi

# A node has one operator surface: /_press/metrics, Prometheus text
# that always answers, its account kept in a registry with or without
# Config.Metrics. The JSON stats endpoint, its encoder and the
# standalone-counter constructor stay gone.
echo "==> one operator surface"
if grep -nE '_press/stats|serveStats|nodeStatsJSON|statsPath|counterIn\(' \
    $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); then
    echo "check: a second node stats surface is back" >&2
    exit 1
fi

# A node's queues are buffered channels, pushed with a select that
# sheds when full, and a queue is closed only by its one producer: the
# main loop closes the send and disk queues, and a transport's inbound,
# which a goroutine per peer feeds, is never closed. The hand-written
# mutex-and-Cond queue and the lock that guarded inbound against its
# close stay gone.
echo "==> the node's queues are channels"
if grep -nE 'workQueue|inClosed|inboundMu|close\(t\.inbound\)' \
    $(find server -name '*.go' ! -name '*_test.go'); then
    echo "check: server/ builds a queue other than a channel, or closes inbound, again" >&2
    exit 1
fi

# A TCP peer is reached one way, as a VIA peer is: connect dials each
# higher-indexed peer once, and a peer that is not up yet is found by
# the health prober through Reconnect. The startup dial loop with its
# own backoff, and the seating count Start waited on, stay gone.
echo "==> a TCP peer is reached one way"
if grep -nE 'meshDialLoop|meshDialBackoff|awaitSeated|unseated' \
    $(find server -name '*.go' ! -name '*_test.go'); then
    echo "check: server/ brings TCP peers up a second way again" >&2
    exit 1
fi

echo "==> presslint ./..."
go run ./cmd/presslint ./...

echo "==> presslint ./metrics ./tracing"
go run ./cmd/presslint ./metrics ./tracing

# The linter holds itself and its driver to the same bar it holds the
# runtime packages to.
echo "==> presslint self-lint ./lint ./cmd/..."
go run ./cmd/presslint ./lint ./cmd/...

# Static half of the 0-alloc proofs: every //presslint:hotpath root
# (the VIA Post* send path, which moves the transfer itself,
# the tracing-off path, the peer table's pace hooks: budget 0; the request path
# every request takes, ServeHTTP and handleClient: budgets 1 and 5;
# the message path — Node.send 0, sendRegular, sendCtrlRMW and the TCP
# sendOn 3, 3, 4 (the encoder's appends into owned scratch), sendFileRMW
# 0 (its staging area's one-time registration gated), decodeInto 2)
# must be provably within budget across the whole call graph.
# The dynamic half is the benchmark gates below (ViaSendMetrics,
# ServeTracingOff, LocalHit1K, Forwarded1K), which also justify the
# //presslint:alloc-gated exemptions the static pass accepts.
echo "==> presslint -analyzer hotpath-alloc,lock-order,atomic-consistency ./..."
go run ./cmd/presslint -analyzer hotpath-alloc,lock-order,atomic-consistency ./...

race_suites <<'EOF'
# The membership seam is real sockets: join handshakes over loopback,
# the Close-vs-redial race, both-ends-at-once reconnects — and the
# multi-process smokes: three pressd processes, one killed -9 mid-run
# and restarted, availability and rejoin convergence asserted, over the
# TCP mesh and over the VIA bridge. Hard timeout so a wedged child
# cannot park the gate.
TestMesh|TestJoinInfo|TestLeaveCodec|./server
-timeout 240s TestProcSmoke|TestProcViaSmoke|./server/procharness
EOF

# Fuzz smoke over the wire format: ten seconds of mutation on the
# Message encode/decode round-trip catches framing regressions the
# table tests miss, and the same treatment for the membership
# handshake payload, for what a peer may remote-write into our rings,
# for the bytes another process sends a VIA bridge, and for the
# exposition text every reader of node state parses.
for fuzz in FuzzMessageRoundTrip:./server FuzzJoinInfo:./server FuzzSlotRingPoll:./server FuzzBridgeConn:./via FuzzParseProm:./telemetry; do
    target=${fuzz%%:*} pkg=${fuzz#*:}
    echo "==> fuzz smoke ($target)"
    go test -run '^$' -fuzz "$target" -fuzztime 10s "$pkg"
done

# Benchmarks are part of the observability surface (the registry and
# tracer on/off overhead proofs live there); make sure they still build
# and the via send pair still runs.
echo "==> benchmark smoke"
go test -run '^$' -bench '^$' ./...
go test -run '^$' -bench BenchmarkViaSendMetrics -benchtime 1x .

# The paired-run tool every performance claim cites: one short pair of
# the bypass workload, HEAD against the working tree.
echo "==> paired-run smoke (scripts/pairs.sh HEAD edge-local 1 1)"
bash scripts/pairs.sh HEAD edge-local 1 1

# The dynamic half of the free-when-off proofs. Tracing: the serve path
# with no tracer. Telemetry: servers always call plane.Event at the
# fault-tolerance call sites, so a nil plane is the hot path.
# Replication: the rate hook runs on every serve and the eviction hook
# on every eviction, both on the nil *core.Replicator a node holds when
# the layer is off. Overload control has no off: its admission,
# deadline and brownout hooks run inside the LocalHit1K and Forwarded1K
# budgets below.
zero_alloc BenchmarkServeTracing . "disabled tracing must be free"
zero_alloc BenchmarkSamplerOff ./telemetry "a disabled telemetry plane must be free"
zero_alloc BenchmarkReplicationOff ./server "disabled replication must be free"

# The forwarded-reply budget: a 64 KiB file crosses a V5 pair in one
# pooled receive buffer, so the whole request (client included) allocates
# ~8 KB. A per-arrival or a reassembly make coming back adds 64 KiB each.
max_bytes_op BenchmarkForwardedReply64K ./server 16384 "a forwarded file must not be allocated per request"

# The request path's budget: one node, one cached 1 KiB file, a client
# that allocates nothing. 17 to 18 today, 16 of them net/http's; the ledger's
# bare net/http null server costs 21. A request, channel, timer or header
# value made per request again adds 2 to 3 each.
max_allocs_op BenchmarkLocalHit1K ./server 20 "the local-hit path allocates no more than net/http does"

# The message path's budget: the same client on a 2-node cluster whose
# one file is cached at the other node, on V5, V0 and TCP. 19 today, one
# above the local hit (the forward's pendingRemote); a Message, frame,
# completion channel or name copy made per message again adds 2 or more.
max_allocs_op BenchmarkForwarded1K ./server 20 "a forwarded request allocates nothing above net/http but its pendingRemote"

echo "check: all gates passed"
