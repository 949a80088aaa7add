#!/bin/sh
# The repository's correctness gate: tier-1, the drills, and a few bare
# commands. Every gate is owned by a Go test, a drill verdict or one command
# below; this script compares no numbers. Latency, throughput and allocation
# of the serving tiers across commits are benchmark/'s job (BENCHMARK.json).
#
#   gate                                        owner
#   determinism in process, every cell bitwise  eval.TestTable6SerialParallelDeterminism
#   determinism across processes                `cmp` of two `experiment table6` runs, below
#   self-time coverage of a real trace          eval.TestTable6SerialParallelDeterminism
#   chaos: rate 0 is invisible                  eval.TestFaultsRateZeroByteIdentical
#   chaos: 30% faults complete and are counted  eval.TestFaultsChaosGridCompletes, faults/chaos_test.go
#   access log, trace IDs, batch links, path    serve.TestConcurrentTracing
#   served == direct answers, 1 Transfer/key    `serve -selftest` verdict (default, -max-batch 1, 30% faults)
#   no leak in a healthy run                    `obs prof FILE -gate`, below
#   the CPU profile is valid pprof              `go tool pprof -raw`, below
#   allocs/op and B/op of predict and Transfer  TestAllocationBudgets (root package)
#   operator mistakes exit 2 with usage         cmd/knowtrans TestOperatorMistakesExitTwo
#   `job plan` is byte-stable                   cmd/knowtrans TestJobPlanIsDeterministic, jobs.TestPlanDeterministic
#   backend SIGKILL mid-load                    `route -selftest` verdict
#   job SIGKILL, torn tail, resume              `job -selftest` verdict
#   error envelope, one client call site        the two `! grep` lines, below
# Run from anywhere inside the repo; exits non-zero on first failure.
set -eu
cd "$(dirname "$0")/.."

# --- tier-1 ------------------------------------------------------------------
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$fmt" >&2
	exit 1
fi
go vet ./...
go build ./...
# The committed benchmark is its own module: `./...` above skips it, so a
# signature change that breaks it would otherwise pass every local gate.
(cd benchmark && go vet ./... && go test ./...)
# Every package once without the race detector and without -short: the race
# list below leaves out nn, lora, skc, tensor, text, baselines, dataio, datagen,
# oracle and the root package — the reference suites, both golden digests
# (TestGoldenBitIdentity, TestTransferDigest) and TestAllocationBudgets.
go test ./...
go test -race ./internal/obs/... ./internal/akb/... ./internal/eval/... \
	./internal/faults/... ./internal/resilience/... ./internal/core/... \
	./internal/tasks/... ./internal/cluster/... ./internal/jobs/... \
	./cmd/knowtrans/...
# A batcher runs GOMAXPROCS lanes and a model answers that many callers at
# once, so these two are raced on one core and on several.
go test -race -cpu 1,4 ./internal/serve/... ./internal/model/...
echo "check.sh: tier-1 gates passed"

# --- tier-2: drills and bare commands ----------------------------------------
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
kt="$tmp/knowtrans"
go build -o "$kt" ./cmd/knowtrans

# Determinism across processes: the rendered tables of a serial and a
# 4-worker run are the same bytes (the "(table6 in 9.2s ...)" trailer is
# wall time).
"$kt" experiment table6 -scale 0.05 -seed 7 -workers 1 >"$tmp/w1.out"
"$kt" experiment table6 -scale 0.05 -seed 7 -workers 4 >"$tmp/w4.out"
grep -v '^(table6 in ' "$tmp/w1.out" >"$tmp/w1.tables"
grep -v '^(table6 in ' "$tmp/w4.out" >"$tmp/w4.tables"
cmp "$tmp/w1.tables" "$tmp/w4.tables"
echo "check.sh: determinism gate passed"

# Serve drill, instrumented: the selftest exits non-zero itself on any answer
# mismatch vs the direct path, any non-2xx at fault rate 0, or any adapter
# whose cold starts did not coalesce to exactly one Transfer. What it leaves
# behind must read as a healthy run and a valid profile.
"$kt" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 256 -selftest-concurrency 64 -selftest-adapters 4 \
	-trace "$tmp/serve.jsonl" -sample 10ms -timeline "$tmp/serve.runtime.jsonl" \
	-cpuprofile "$tmp/serve.cpu.pprof" -access-log "$tmp/access.log"
"$kt" obs prof "$tmp/serve.runtime.jsonl" -gate
go tool pprof -raw "$tmp/serve.cpu.pprof" >/dev/null
# The same drill where every request is an n = 1 batch, and under a 30%
# seeded fault rate (availability may degrade, answers may not).
"$kt" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-access-log "$tmp/access.log" -max-batch 1
"$kt" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-access-log "$tmp/access.log" -faults rate=0.3,seed=9
echo "check.sh: serve gate passed"

# Cluster drill: 3 backends, two 256-request phases through two router
# replicas, one backend SIGKILLed a quarter into the second.
"$kt" route -selftest -scale 0.05 -seed 7 \
	-selftest-requests 256 -selftest-concurrency 64 -selftest-adapters 4 \
	-faults rate=0.3,seed=9
echo "check.sh: cluster gate passed"

# Jobs drill: a 64-row 8-shard job SIGKILLed after 2 commits, its checkpoint
# tail torn, resumed; output byte-identical to the uninterrupted run.
"$kt" job -selftest -scale 0.05 -seed 7 -faults rate=0.3,seed=9
echo "check.sh: jobs gate passed"

# Envelope enforcement, statically: the serving packages route every HTTP
# error through serve.WriteError, never raw http.Error; and the router and
# the CLI reach a backend only through serve.Call.
! grep -rn 'http\.Error(' internal/serve internal/cluster internal/jobs || exit 1
! grep -rn --include='*.go' --exclude='*_test.go' \
	-e 'http\.NewRequest' -e 'http\.Get(' -e 'http\.Post(' internal/cluster cmd/knowtrans || exit 1

echo "check.sh: all gates passed"
