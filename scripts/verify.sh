#!/bin/sh
# verify.sh — the tier-1 gate plus static analysis and the race
# detector over the packages where concurrency lives: the compiled-
# script pipeline, the event loop, the pipe protocol (whose metrics
# are written from the loop and snapshotted from anywhere), and the
# resource database (quark intern table, generation counter and
# search-list cache, written by mergeResources while widget creation
# reads).
set -e
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
test -z "$unformatted" || { echo "not gofmt-clean:"; echo "$unformatted"; exit 1; }

echo "== go test ./..."
go test ./...

# The repo's own analyzers: wafevet enforces runtime invariants
# (nil-guarded obs pointers, no mutex held across Interp.Eval,
# checked strconv/Sscan errors, consistent atomics, session-owned
# state touched only from its event loop, an acyclic lock-order
# graph) over every internal and cmd package; wafecheck lints the
# shipped demos and the example programs' embedded scripts against
# the live command table.
echo "== wafevet ./internal/... ./cmd/..."
go run ./cmd/wafevet ./internal/... ./cmd/...

echo "== wafecheck demos/ examples/"
go run ./cmd/wafecheck demos/ examples/

echo "== go test -race ./internal/tcl/ ./internal/core/ ./internal/xt/ ./internal/frontend/... ./internal/obs/"
go test -race ./internal/tcl/ ./internal/core/ ./internal/xt/ ./internal/frontend/... ./internal/obs/

# The fault-injection suite drives the supervisor and the pipe loop
# through crash, hang, overlong-line and broken-pipe scenarios;
# TestXrmConcurrent hammers the quark intern table and the database
# generation counter with mergeResources racing widget creation;
# TestSession/TestServe cover session isolation, serve-mode lifecycle
# (handshake, mid-command disconnect, crash respawn beside a live
# sibling, graceful shutdown) and per-session metrics;
# TestTrace/TestRing/TestSpan cover concurrent span/event recording
# against readers, and TestFlight the anomaly snapshots. Run by name
# so a renamed test cannot silently drop out of the gate.
echo "== go test -race fault injection + supervision + xrm concurrency + sessions + tracing"
go test -race -count 1 \
    -run 'TestSupervisor|TestShutdown|TestReadError|TestOverlong|TestPostFrom|TestPostFunnel|TestTimerRemoved|TestXrmConcurrent|TestSession|TestServe|TestTrace|TestRing|TestSpan|TestFlight' \
    ./internal/xt/ ./internal/frontend/ ./internal/obs/

# The serve-mode load harness at a reduced session count: full scale
# (1024 sessions) runs in the bench gate; here 256 sessions under the
# race detector prove isolation with the full machinery engaged.
echo "== go test -race serve-mode load harness (256 sessions)"
WAFE_SERVE_SESSIONS=256 go test -race -count 1 -run 'TestServeLoad$' ./internal/frontend/

# The tracing perf gate: disabled-path span hooks must stay within
# noise of the seed, enabled spans must cost under a microsecond per
# line (paired same-run comparison).
echo "== scripts/bench.sh trace"
COUNT=2 BENCHTIME=0.3s scripts/bench.sh trace

# The execution-engine-v2 gate: the oracle suite (the test-only tree
# walker vs the bytecode VM over the corpus, the bug-sweep goldens, the
# randomized scripts and every demo script, and the compiled expression
# path vs the test-only one-pass expression evaluator) under the race
# detector, then a time-boxed fuzz of the expression compiler against
# that oracle, then the paired same-run perf comparison (bytecode
# speedup, proc-call allocs, F4/T1 no-regression).
echo "== go test -race engine differential oracle"
go test -race -count 1 -run 'TestOracle|TestDifferential|TestDemoScriptsEngineDifferential|TestExprOracle|TestVarRef|TestSpecialize|TestDispatchCache|TestExprCmd|TestProcCallAllocs' ./internal/tcl/

echo "== go test -fuzz FuzzExpr (15s)"
go test -run '^$' -fuzz '^FuzzExpr$' -fuzztime 15s ./internal/tcl

echo "== scripts/bench.sh tclvm"
COUNT=2 BENCHTIME=0.3s scripts/bench.sh tclvm

# The damage-region render gate: the differential oracle proves
# clipped partial redraws are pixel-identical to full repaints (every
# demo plus randomized damage sequences, under the race detector),
# then the perf gate holds the steady-state single-widget update at
# 0 B/op and memoized snapshots at O(1) in tree size.
echo "== go test -race render differential oracle"
go test -race -count 1 -run 'TestRenderOracle' .

echo "== scripts/bench.sh render"
COUNT=2 BENCHTIME=0.3s scripts/bench.sh render

echo "verify: OK"
