#!/bin/sh
# The repository's correctness gate: tier-1, then the drills. Every gate is
# owned by a Go test, the coverage stage or one of the greps below; this
# script compares no numbers. Latency, throughput and allocation of the
# serving tiers across commits are benchmark/'s job (BENCHMARK.json).
#
#   gate                                        owner
#   the paper: `experiment all` prints
#     results_full.txt byte for byte            cmd/knowtrans TestDrillPaperTables (tier-2)
#   training arithmetic bitwise                 skc.TestGoldenBitIdentity, TestTransferDigest (root package)
#   baselines' answers bitwise (Non-LLM, the
#     fine-tuned tiers, MELD, Jellyfish-ICL)    TestMethodDigest (root package)
#   both ablation tables (outside `experiment
#     all`), every cell bitwise at 2 reps       eval.TestAblationDigest
#   a StepBatch window == its examples one at
#     a time: gradients, touched rows, λ, loss  model.TestStepBatchMatchesOneExampleWindows
#   batched passes == one row at a time         nn.TestBankMatchesPerPatchReference
#   slot-held gradient and moments == a dense
#     Adam / clip / ZeroGrad oracle, bitwise    nn.TestSlotStateMatchesDenseOracle
#   adapters share one backbone: concurrent
#     Transfers == serial, upstream unchanged,
#     no backbone in any adapter's ParamSet     core.TestConcurrentTransfersShareOneBackbone (-race)
#   determinism in process, every cell bitwise  eval.TestTable6SerialParallelDeterminism
#   determinism across processes                cmd/knowtrans TestDrillTable6AcrossProcesses
#   self-time coverage of a real trace          eval.TestTable6SerialParallelDeterminism
#   chaos: rate 0 is invisible                  eval.TestFaultsRateZeroByteIdentical
#   chaos: 30% faults complete and are counted  eval.TestFaultsChaosGridCompletes, faults/chaos_test.go
#   access log, trace IDs, batch links, path    serve.TestConcurrentTracing
#   served == direct answers, 1 Transfer/key    cmd/knowtrans TestDrillServe (default, max-batch-1, faults)
#   no leak in a healthy run (obs prof -gate
#     over the trace's runtime samples)         cmd/knowtrans TestDrillServe/default
#   a drain stops every resident batcher        serve.TestCloseStopsEveryBatcher
#   batching rule: a lone request never waits,
#     a non-full batch never starts beside
#     another                                   serve.TestBatchingRule, serve.TestTwoLanesOverlapFullBatches,
#                                               serve.TestBatcherInterleavings (-race -cpu 1,4)
#   the leak gate bites: a growing or a burst
#     leak is flagged; warmup, plateau jitter,
#     a drained or a truncated run are not      analyze.TestProfReportDetectsLeaks,
#                                               analyze.TestProfReportFinalSampleRule,
#                                               analyze.TestProfReportWarmupIsNotALeak,
#                                               analyze.TestProfReportPlateauJitterIsNotALeak
#   the CPU profile is valid pprof              cmd/knowtrans TestDrillServe/default
#   a real serve child: ready, envelope, exit 0 cmd/knowtrans TestServeChildEnvelopeDrainMetrics
#   a real route child: banner, healthz, readyz,
#     404/405 envelopes, access log, exit 0    cmd/knowtrans TestRouteChild
#   every route counted, logged, capped,
#     enveloped                                 serve.TestErrorEnvelopeEverywhere (walks Server.routes)
#   allocs/op of one request through the
#     pipeline                                  TestServeRequestAllocs (root package)
#   HTTP job specs stay inside -jobs-dir        jobs.TestJobsHTTPConfinesPaths
#   HTTP job specs name no checkpoint log       jobs.TestJobsHTTPConfinesPaths, jobs.FuzzParseSpec
#   allocs/op and B/op of predict and Transfer  TestAllocationBudgets (root package)
#   loaded zoo == trained zoo, 13 keys bitwise  TestTransferDigest (root package)
#   build -> transfer -artifacts == transfer,
#     across processes; foreign dir refused     cmd/knowtrans TestDrillArtifacts
#   stale / truncated / corrupt artifact dirs
#     refused, never a panic                    eval.TestLoadArtifactsRefuses, model.FuzzDecodeSnapshot,
#                                               lora.FuzzDecodeSnapshot (corpora in tier-1, 10 s of
#                                               fuzzing each in tier-2)
#   operator mistakes exit 2, leave no files    cmd/knowtrans TestOperatorMistakesExitTwo
#   a failed telemetry setup releases what it
#     started                                   cmd/knowtrans TestFailedObsSetupReleasesWhatItAcquired
#   every emitted metric, span and event is
#     catalogued and read                       obs.TestTelemetryCatalogue (DESIGN.md "Telemetry catalogue")
#   parsers of untrusted bytes                  obs.FuzzParseTraceparent, jobs.FuzzParseSpec (+ confine),
#                                               jobs.FuzzReadLog, faults.FuzzParseSpec: corpora in tier-1,
#                                               10 s of fuzzing each in tier-2
#   sparse features == reference hasher         text.FuzzEncoderEquivalence, tensor.FuzzDenseBuilder
#                                               (corpora in tier-1, 10 s of fuzzing each in tier-2)
#   kernels == naive loops, bitwise             tensor.TestKernelsMatchNaiveLoops,
#                                               tensor.TestRowSumMatchesNaiveAxpy, tensor.FuzzAddRows
#                                               (corpus in tier-1, 10 s of fuzzing in tier-2)
#   no fused multiply-add in tensor on arm64    the arm64 stage, below
#   dataset decode refuses trailing bytes       dataio.TestDecodeJSONRejectsTrailingBytes, dataio.FuzzDecodeJSON
#                                               (corpus in tier-1, 10 s of fuzzing in tier-2)
#   a predict body is read by the job file's
#     instance grammar: duplicate keys and
#     trailing bytes refused, at the router
#     too, before any backend sees them         serve.FuzzParsePredict (corpus in tier-1, 10 s in tier-2),
#                                               cluster.TestRouterRefusesMalformedPredictBodies
#   the float screen rejects only what
#     strconv.ParseFloat rejects                tasks.FuzzNumberScreen (corpus in tier-1, 10 s in tier-2)
#   CSV input: no panic, rows at header arity,
#     gold indexes candidates, one DI instance
#     per row with a non-empty trimmed target   dataio.FuzzReadCSV (corpus in tier-1, 10 s in tier-2)
#   a peer's error answer: the WireError Call
#     builds never panics, its retry and 404
#     verdicts come from the status alone       serve.FuzzParseErrorEnvelope (corpus in tier-1, 10 s in tier-2)
#   any method, path and body through the
#     route table: no panic, every refusal a
#     wireStatuses row in the envelope, only
#     valid keys and candidate-bearing
#     predicts reach the resolver               serve.FuzzRequestPipeline (corpus in tier-1, 10 s in tier-2)
#   a trace file read from disk: Load errors
#     or its Walk visits every span once (a
#     parent cycle included); the reports and
#     their writers never panic                 analyze.FuzzLoad (corpus in tier-1, 10 s in tier-2)
#   the load generator is not linked by the
#     binaries or the examples                  loadgen.TestNotLinkedByProduct
#   a manager forgets old finished jobs only    jobs.TestManagerForgetsOldFinishedJobs
#   `job plan` is byte-stable                   cmd/knowtrans TestJobPlanIsDeterministic, jobs.TestPlanDeterministic
#   backend SIGKILL mid-load                    cmd/knowtrans TestDrillRoute
#   job SIGKILL, torn tail, resume              cmd/knowtrans TestDrillJob
#   a failed checkpoint append, cut at every
#     byte, leaves a readable log               jobs.TestCheckpointFailedAppendKeepsLogReadable, jobs.FuzzReadLog
#   error envelope, one client call site,
#     one request pipeline                      the four `! grep` lines, below
#   every product function runs in tier-1's
#     `go test` or a drill                      the coverage stage, below (its allow-list)
# Run from anywhere inside the repo; exits non-zero on first failure. Each
# stage prints its wall seconds when it passes.
set -eu
cd "$(dirname "$0")/.."
cov=$(mktemp -d)
trap 'rm -rf "$cov"' EXIT
covpkg=./internal/...,./cmd/...

stage_start=$(date +%s)
# passed STAGE reports STAGE passed and the wall seconds since the last one.
passed() {
	now=$(date +%s)
	echo "check.sh: $1 passed in $((now - stage_start)) s"
	stage_start=$now
}

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
# Coverage counters change no verdict, so this run also feeds the coverage stage.
go test -coverpkg=$covpkg -coverprofile="$cov/tier1.out" ./...
go test -race ./internal/obs/... ./internal/akb/... ./internal/eval/... \
	./internal/faults/... ./internal/resilience/... ./internal/core/... \
	./internal/tasks/... ./internal/cluster/... ./internal/jobs/... \
	./cmd/knowtrans/...
# A batcher runs GOMAXPROCS lanes and a model answers that many callers at
# once, so these two are raced on one core and on several, with the load
# generator's tests that aim 64 concurrent requests at a real server.
go test -race -cpu 1,4 ./internal/serve/... ./internal/model/... ./internal/loadgen/...
passed "tier-1 gates"

# --- no fused multiply-add ---------------------------------------------------
# arm64 (like ppc64le, s390x, riscv64 and loong64, unlike amd64) fuses x*y + z
# into one instruction that rounds once, so a fused kernel gives other bits
# than amd64; the kernels write float64(x * y), whose explicit conversion
# forbids it. The toolchain cross-compiles with no download, and a warm build
# cache replays the compiler's listing, so a second run sees the same code.
if ! asm=$(GOARCH=arm64 go build -o /dev/null -gcflags=-S ./internal/tensor 2>&1); then
	printf '%s\n' "$asm" >&2
	echo "check.sh: arm64 build of internal/tensor failed" >&2
	exit 1
fi
fused=$(printf '%s\n' "$asm" | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' || true)
if [ -n "$fused" ]; then
	echo "check.sh: fused multiply-add in internal/tensor on arm64:" >&2
	echo "$fused" >&2
	exit 1
fi
passed "no fused multiply-add in tensor"

# --- tier-2: the drills ------------------------------------------------------
# Go tests that start the real binary as child processes (about 150 s, half of
# it the paper tables, a zoo per child), so tier-1's `go test` skips them
# unless -drill is passed.
go test ./cmd/knowtrans -run 'TestDrill' -drill -count=1 -v \
	-coverpkg=$covpkg -coverprofile="$cov/drills.out"
passed "drills"

# --- coverage: nothing unreached ----------------------------------------------
# The two profiles above, merged: a drill's children are its test binary
# re-executed, and they write their counters under the GOCOVERDIR `go test`
# sets, so the drills' profile holds them. A product function at 0% fails
# unless it is allowed here, one "file:function reason" a line.
allowed=''
printf '%s\n' "$allowed" >"$cov/allowed"
{ cat "$cov/tier1.out"; tail -n +2 "$cov/drills.out"; } >"$cov/merged.out"
go tool cover -func="$cov/merged.out" >"$cov/func.txt"
awk 'NR == FNR { if (NF == 1) { print "check.sh: allow-list entry without a reason: " $1; bad = 1 } if (NF) ok[$1] = 1; next }
	$NF == "0.0%" { sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1)
		if (!(($1 ":" $2) in ok)) { print "check.sh: no test or drill runs " $1 ":" $2; bad = 1 } }
	END { exit bad }' "$cov/allowed" "$cov/func.txt"
awk 'END { print "check.sh: product statements reached: " $NF }' "$cov/func.txt"
passed "coverage"

# The sixteen fuzz targets, 10 s each (tier-1's `go test ./...` ran their seed
# corpora). -fuzz takes one target and one package per run. -fuzzminimizetime
# 100x caps the minimizing of each new input at 100 runs, so the 10 s go to
# fuzzing rather than to shrinking what it found.
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime 10s -fuzzminimizetime 100x ./internal/obs
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s -fuzzminimizetime 100x ./internal/obs/analyze
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s -fuzzminimizetime 100x ./internal/jobs
go test -run '^$' -fuzz '^FuzzReadLog$' -fuzztime 10s -fuzzminimizetime 100x ./internal/jobs
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s -fuzzminimizetime 100x ./internal/faults
go test -run '^$' -fuzz '^FuzzDecodeJSON$' -fuzztime 10s -fuzzminimizetime 100x ./internal/dataio
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 10s -fuzzminimizetime 100x ./internal/dataio
go test -run '^$' -fuzz '^FuzzParseErrorEnvelope$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve
go test -run '^$' -fuzz '^FuzzRequestPipeline$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve
go test -run '^$' -fuzz '^FuzzParsePredict$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve
go test -run '^$' -fuzz '^FuzzEncoderEquivalence$' -fuzztime 10s -fuzzminimizetime 100x ./internal/text
go test -run '^$' -fuzz '^FuzzDenseBuilder$' -fuzztime 10s -fuzzminimizetime 100x ./internal/tensor
go test -run '^$' -fuzz '^FuzzAddRows$' -fuzztime 10s -fuzzminimizetime 100x ./internal/tensor
go test -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime 10s -fuzzminimizetime 100x ./internal/model
go test -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime 10s -fuzzminimizetime 100x ./internal/lora
go test -run '^$' -fuzz '^FuzzNumberScreen$' -fuzztime 10s -fuzzminimizetime 100x ./internal/tasks
passed "fuzz targets"

# Envelope enforcement, statically: the serving packages route every HTTP
# error through serve.WriteError, never raw http.Error; and the router and
# the CLI reach a backend only through serve.Call.
! grep -rn 'http\.Error(' internal/serve internal/cluster internal/jobs || exit 1
! grep -rn --include='*.go' --exclude='*_test.go' \
	-e 'http\.NewRequest' -e 'http\.Get(' -e 'http\.Post(' internal/cluster cmd/knowtrans || exit 1

# One request pipeline, statically: method checks, body decodes and body caps
# live in internal/serve/pipeline.go and nowhere else, so a tenth hand-rolled
# handler cannot come back.
! grep -rn 'r\.Method\|json\.NewDecoder(r\.Body)\|io\.LimitReader' internal/jobs || exit 1
! grep -rn --exclude=pipeline.go 'r\.Method\|json\.NewDecoder(r\.Body)\|io\.LimitReader' internal/serve || exit 1

echo "check.sh: all gates passed"
