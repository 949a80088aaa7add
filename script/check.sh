#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the race-sensitive test
# packages (the obs registry/tracer/analyzer, the concurrent AKB loop, and
# the parallel experiment harness in eval).
# Tier-2 gate: run a tiny seeded experiment serially twice and once with
# four workers, and require `knowtrans obs diff -strict` to report zero
# regressions across all three (the determinism gate), byte-identical
# rendered tables between the serial and parallel runs, and the trace
# analyzer's self-time accounting to cover the root span. A chaos gate then
# re-runs the experiment through the fault-injection chain: at rate 0 the
# tables must stay byte-identical to the unwrapped run, and at a 30% seeded
# fault rate the run must complete exit 0 with injection metrics recorded.
# Finally a serve gate runs `knowtrans serve -selftest` with tracing and
# the access log armed: a 64-concurrent seeded load over 4 adapters through
# the real HTTP path must return zero non-2xx, echo every client
# traceparent, answer byte-identically to the direct Adapted.Predict path,
# coalesce every adapter's cold start to exactly one Transfer, and record
# the run in BENCH_serve.json. The telemetry it leaves behind is then
# audited: every 2xx predict produced exactly one access-log line carrying
# a trace ID, every serve.batch span links at least one request span, and
# `obs trace -trace-id` reconstructs the slowest request's end-to-end path.
# `obs trace` on a missing file must exit 2 with usage, not panic or pass.
# A profiling gate then audits the resource telemetry the same selftest
# left behind (it runs under -sample with a whole-run -cpuprofile): the
# runtime timeline must summarize cleanly under `obs prof -gate` (no
# goroutine leak, no unbounded heap growth), self-diff to zero regressions,
# and fail (exit 1) against a doctored timeline with inflated goroutine and
# heap readings — the perf-regression sentinel. The CPU profile must be
# valid pprof, BENCH_serve.json (schema 5) must carry the resources
# section, and `obs diff` must accept serve docs: clean on self, exit 1
# when bytes/op is doctored 10x.
# A batching gate then sweeps the batcher's configurations: -max-batch 1
# (degenerate single-request batches) and a 30% seeded fault rate must both
# pass the selftest (answer mismatches are fatal inside it at any fault
# rate). Finally an allocation gate runs the ServePredict benchmarks (8 rows
# as one batch, and as eight n = 1 calls) and the FewShotTransfer benchmark,
# and diffs the measured ns/bytes/allocs per op of all three against the
# committed BENCH_allocs.json baseline via `knowtrans obs diff`.
# A cluster gate then runs `knowtrans route -selftest`: a 3-backend fleet
# with one backend SIGKILLed mid-load must serve every request (zero
# non-2xx, byte-identical answers), record hedges and failovers, eject the
# corpse, rebalance its keys, and drain the survivors clean on SIGTERM;
# the recorded BENCH_cluster.json is diffed against the committed baseline.
# Finally a jobs gate runs `knowtrans job -selftest` under a 30% seeded
# fault rate: dry-run planning must be byte-deterministic, a multi-shard
# bulk job SIGKILLed mid-flight must resume from its checkpoint log with
# zero duplicated Transfers and produce output byte-identical to an
# uninterrupted same-seed run, a torn checkpoint tail must be tolerated,
# every /v1/* error body must be the canonical error envelope (also
# enforced statically: no raw http.Error in the serving packages), and the
# recorded BENCH_jobs.json is diffed against the committed baseline.
# Run from anywhere inside the repo; exits non-zero on first failure.
set -eu
cd "$(dirname "$0")/.."

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
go test -race ./internal/obs/... ./internal/akb/... ./internal/eval/... \
	./internal/faults/... ./internal/resilience/... ./internal/serve/... \
	./internal/cluster/... ./internal/jobs/...
echo "check.sh: tier-1 gates passed"

# --- tier-2: telemetry determinism gate ------------------------------------
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/knowtrans" ./cmd/knowtrans
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 1 \
	-bench "$tmp/a.json" -trace "$tmp/a.jsonl" >"$tmp/a.out"
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 1 \
	-bench "$tmp/b.json" >/dev/null
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-bench "$tmp/p.json" -trace "$tmp/p.jsonl" >"$tmp/p.out"

# Identical seeds must produce identical metrics (wall time is exempt):
# serial vs serial, and serial vs four workers.
for other in b p; do
	"$tmp/knowtrans" obs diff "$tmp/a.json" "$tmp/$other.json" -strict >/dev/null || {
		echo "check.sh: determinism gate failed — obs diff a vs $other found changes:" >&2
		"$tmp/knowtrans" obs diff "$tmp/a.json" "$tmp/$other.json" -strict >&2 || true
		exit 1
	}
done

# The rendered tables must be byte-identical too. Only the wall-time
# trailer "(table6 in ...)" and the "wrote BENCH..." line vary per run.
sed -e '/^(/d' -e '/^wrote /d' "$tmp/a.out" >"$tmp/a.flat"
sed -e '/^(/d' -e '/^wrote /d' "$tmp/p.out" >"$tmp/p.flat"
cmp -s "$tmp/a.flat" "$tmp/p.flat" || {
	echo "check.sh: parallel run rendered different tables than serial:" >&2
	diff "$tmp/a.flat" "$tmp/p.flat" >&2 || true
	exit 1
}

# The analyzer's per-stage self times must account for the root span's
# duration (the ISSUE's 5% acceptance bound). A serial trace has one
# timeline, so coverage is bounded both ways; a parallel trace holds
# overlapping worker spans whose self times sum past the root's wall time,
# so only the lower bound applies there.
coverage=$("$tmp/knowtrans" obs trace "$tmp/a.jsonl" | sed -n 's/^self-time coverage: \([0-9.]*\)%.*/\1/p')
if [ -z "$coverage" ]; then
	echo "check.sh: obs trace printed no coverage line for serial run" >&2
	exit 1
fi
ok=$(awk -v c="$coverage" 'BEGIN { print (c >= 95.0 && c <= 105.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
	echo "check.sh: serial self-time coverage $coverage% outside [95,105]" >&2
	exit 1
fi
pcov=$("$tmp/knowtrans" obs trace "$tmp/p.jsonl" | sed -n 's/^self-time coverage: \([0-9.]*\)%.*/\1/p')
if [ -z "$pcov" ]; then
	echo "check.sh: obs trace printed no coverage line for parallel run" >&2
	exit 1
fi
ok=$(awk -v c="$pcov" 'BEGIN { print (c >= 95.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
	echo "check.sh: parallel self-time coverage $pcov% below 95" >&2
	exit 1
fi
echo "check.sh: tier-2 determinism gate passed (coverage serial $coverage%, 4 workers $pcov%)"

# --- tier-2: chaos gate ------------------------------------------------------
# Rate 0 arms the whole injector → resilient-client chain with zero
# injections: the rendered tables must stay byte-identical to the unwrapped
# serial run above.
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-faults rate=0,seed=9 -bench "$tmp/f0.json" >"$tmp/f0.out"
sed -e '/^(/d' -e '/^wrote /d' "$tmp/f0.out" >"$tmp/f0.flat"
cmp -s "$tmp/a.flat" "$tmp/f0.flat" || {
	echo "check.sh: rate-0 fault chain changed the rendered tables:" >&2
	diff "$tmp/a.flat" "$tmp/f0.flat" >&2 || true
	exit 1
}

# A 30% seeded fault rate must complete every cell (exit 0 — graceful
# degradation, never a panic) and the injection/resilience metrics must
# actually appear in the metrics snapshot.
"$tmp/knowtrans" experiment table6 -scale 0.05 -seed 7 -workers 4 \
	-faults rate=0.3,seed=9 -metrics "$tmp/chaos.json" >/dev/null || {
	echo "check.sh: chaos run (30% faults) failed" >&2
	exit 1
}
grep -q '"faults.injected"' "$tmp/chaos.json" || {
	echo "check.sh: chaos run recorded no faults.injected metric" >&2
	exit 1
}
echo "check.sh: tier-2 chaos gate passed"

# --- tier-2: serve gate ------------------------------------------------------
# The selftest drives a seeded load through the full HTTP path and exits
# non-zero itself on any answer mismatch vs the direct path, any non-2xx
# at fault rate 0, or any adapter whose cold starts did not coalesce to
# exactly one Transfer. We additionally require the perf record to exist
# and to have actually measured the load.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 256 -selftest-concurrency 64 -selftest-adapters 4 \
	-bench "$tmp/serve.json" -trace "$tmp/serve.jsonl" \
	-sample 10ms -timeline "$tmp/serve.runtime.jsonl" \
	-cpuprofile "$tmp/serve.cpu.pprof" \
	-access-log "$tmp/access.log" >"$tmp/serve.out" || {
	echo "check.sh: serve selftest failed:" >&2
	cat "$tmp/serve.out" >&2
	exit 1
}
[ -s "$tmp/serve.json" ] || {
	echo "check.sh: serve selftest wrote no BENCH_serve.json" >&2
	exit 1
}
grep -q '"requests": 256' "$tmp/serve.json" || {
	echo "check.sh: BENCH_serve.json did not record the 256-request load" >&2
	exit 1
}

# Access log: the selftest passed, so all 256 predicts were 2xx — each must
# have produced exactly one log line, and every line must carry a trace ID.
lines=$(grep -c '"msg":"request"' "$tmp/access.log" || true)
if [ "$lines" != 256 ]; then
	echo "check.sh: access log has $lines request lines, want 256" >&2
	exit 1
fi
traced=$(grep '"msg":"request"' "$tmp/access.log" | grep -c '"trace":"[0-9a-f]' || true)
if [ "$traced" != 256 ]; then
	echo "check.sh: only $traced/256 access-log lines carry a trace ID" >&2
	exit 1
fi

# Span stream: batching ran, and every serve.batch span links the request
# spans it served (the handle that makes shared work attributable).
batches=$(grep -c '"name":"serve.batch"' "$tmp/serve.jsonl" || true)
if [ "$batches" = 0 ]; then
	echo "check.sh: selftest trace recorded no serve.batch spans" >&2
	exit 1
fi
linked=$(grep '"name":"serve.batch"' "$tmp/serve.jsonl" | grep -c '"links":\[' || true)
if [ "$linked" != "$batches" ]; then
	echo "check.sh: only $linked/$batches serve.batch spans carry request links" >&2
	exit 1
fi

# End-to-end reconstruction: pull the slowest request's trace ID the
# selftest printed and require `obs trace -trace-id` to reassemble its path
# — the request span plus the linked batch that actually served it.
sample=$(sed -n 's/^selftest: slowest request trace \([0-9a-f]*\).*/\1/p' "$tmp/serve.out")
if [ -z "$sample" ]; then
	echo "check.sh: selftest printed no sample trace ID" >&2
	exit 1
fi
"$tmp/knowtrans" obs trace "$tmp/serve.jsonl" -trace-id "$sample" >"$tmp/path.out" || {
	echo "check.sh: obs trace -trace-id $sample failed" >&2
	exit 1
}
for want in serve.request serve.batch; do
	grep -q "$want" "$tmp/path.out" || {
		echo "check.sh: obs trace -trace-id reconstruction lacks $want:" >&2
		cat "$tmp/path.out" >&2
		exit 1
	}
done

# A missing trace file is an operator mistake: exit 2 with usage, never a
# panic and never a success.
rc=0
"$tmp/knowtrans" obs trace "$tmp/no-such-trace.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 2 ]; then
	echo "check.sh: obs trace on a missing file exited $rc, want 2" >&2
	exit 1
fi
echo "check.sh: tier-2 serve gate passed"

# --- tier-2: profiling gate --------------------------------------------------
# The selftest above ran under the runtime sampler with a whole-run CPU
# profile; audit what it left behind.
[ -s "$tmp/serve.runtime.jsonl" ] || {
	echo "check.sh: sampler wrote no runtime timeline" >&2
	exit 1
}

# The timeline must summarize cleanly: no goroutine leak, no unbounded
# heap growth in a healthy selftest.
"$tmp/knowtrans" obs prof "$tmp/serve.runtime.jsonl" -gate >"$tmp/prof.out" || {
	echo "check.sh: obs prof -gate flagged the healthy selftest:" >&2
	cat "$tmp/prof.out" >&2
	exit 1
}
grep -q 'runtime timeline:' "$tmp/prof.out" || {
	echo "check.sh: obs prof printed no summary:" >&2
	cat "$tmp/prof.out" >&2
	exit 1
}

# Sentinel, negative control: a timeline diffed against itself has zero
# budget regressions.
"$tmp/knowtrans" obs prof "$tmp/serve.runtime.jsonl" \
	-diff "$tmp/serve.runtime.jsonl" >/dev/null || {
	echo "check.sh: obs prof self-diff reported regressions" >&2
	exit 1
}

# Sentinel, positive control: doctor the timeline (goroutine and heap
# readings inflated by a leading digit, ~10-90x) and require the diff
# against the real baseline to exit 1.
sed -e 's/"goroutines":\([0-9]\)/"goroutines":9\1/' \
	-e 's/"heap_live_bytes":\([0-9]\)/"heap_live_bytes":9\1/' \
	"$tmp/serve.runtime.jsonl" >"$tmp/doctored.runtime.jsonl"
rc=0
"$tmp/knowtrans" obs prof "$tmp/doctored.runtime.jsonl" \
	-diff "$tmp/serve.runtime.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
	echo "check.sh: obs prof -diff on doctored timeline exited $rc, want 1" >&2
	exit 1
fi

# The whole-run CPU profile must be valid pprof (label-propagation down to
# the adapter is pinned by unit tests; a live profile's sample mix is
# load-dependent and not asserted here).
[ -s "$tmp/serve.cpu.pprof" ] || {
	echo "check.sh: selftest wrote no CPU profile" >&2
	exit 1
}
go tool pprof -raw "$tmp/serve.cpu.pprof" >/dev/null 2>&1 || {
	echo "check.sh: serve.cpu.pprof is not a valid profile" >&2
	exit 1
}

# BENCH_serve.json schema 5 carries the resources section, and obs diff
# understands serve docs: clean against itself, exit 1 when bytes/op is
# doctored an order of magnitude worse.
grep -q '"schema_version": 5' "$tmp/serve.json" || {
	echo "check.sh: BENCH_serve.json is not schema 5" >&2
	exit 1
}
grep -q '"bytes_per_op"' "$tmp/serve.json" || {
	echo "check.sh: BENCH_serve.json lacks the resources section" >&2
	exit 1
}
"$tmp/knowtrans" obs diff "$tmp/serve.json" "$tmp/serve.json" >/dev/null || {
	echo "check.sh: obs diff on identical serve docs reported regressions" >&2
	exit 1
}
sed -e 's/"bytes_per_op": \([0-9]\)/"bytes_per_op": 9\1/' \
	-e 's/"allocs_per_op": \([0-9]\)/"allocs_per_op": 9\1/' \
	"$tmp/serve.json" >"$tmp/serve.doctored.json"
rc=0
"$tmp/knowtrans" obs diff "$tmp/serve.json" "$tmp/serve.doctored.json" \
	-rel-tol 0.5 >/dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
	echo "check.sh: obs diff on doctored serve doc exited $rc, want 1" >&2
	exit 1
fi

# A missing timeline is an operator mistake: exit 2 with usage.
rc=0
"$tmp/knowtrans" obs prof "$tmp/no-such-timeline.jsonl" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 2 ]; then
	echo "check.sh: obs prof on a missing file exited $rc, want 2" >&2
	exit 1
fi
echo "check.sh: tier-2 profiling gate passed"

# --- tier-2: batching gate ---------------------------------------------------
# The served answers must be byte-identical to the direct path in every
# configuration the batcher can reach. The selftest makes answer mismatches
# fatal at any fault rate, so each PASS below is an equivalence proof for
# its configuration; the main serve gate above already covered the default
# configuration.

# Degenerate batches: -max-batch 1 drains every request as an n = 1 batch.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-max-batch 1 -bench "$tmp/serve.mb1.json" >"$tmp/serve.mb1.out" || {
	echo "check.sh: serve selftest with -max-batch 1 failed:" >&2
	cat "$tmp/serve.mb1.out" >&2
	exit 1
}

# Chaos: a 30% seeded fault rate must degrade availability, never
# correctness — the served answers still match the equally-faulted direct
# path and cold starts still coalesce.
"$tmp/knowtrans" serve -selftest -scale 0.05 -seed 7 \
	-selftest-requests 128 -selftest-concurrency 32 -selftest-adapters 2 \
	-faults rate=0.3,seed=9 -bench "$tmp/serve.chaos.json" >"$tmp/serve.chaos.out" || {
	echo "check.sh: serve selftest under 30% faults failed:" >&2
	cat "$tmp/serve.chaos.out" >&2
	exit 1
}

echo "check.sh: tier-2 batching gate passed"

# --- tier-2: allocation gate -------------------------------------------------
# The ServePredict benchmarks answer the same 8 rows as one micro-batch and
# as eight n = 1 calls. The measured time/bytes/allocs per op must stay
# within tolerance of the committed BENCH_allocs.json baseline (the rel-tol
# absorbs machine-to-machine time variance). FewShotTransfer rides along so
# a training step that starts allocating per step again (57 MiB per Transfer
# before PR 12) trips the same diff.
go test -run '^$' -bench 'ServePredict|FewShotTransfer' -benchmem . >"$tmp/bench.out" || {
	echo "check.sh: ServePredict/FewShotTransfer benchmarks failed:" >&2
	cat "$tmp/bench.out" >&2
	exit 1
}
awk '
	$1 ~ /^BenchmarkServePredict(-|$)/    { bt=$3; bb=$5; ba=$7 }
	$1 ~ /^BenchmarkServePredictOne(-|$)/ { ot=$3; ob=$5; oa=$7 }
	$1 ~ /^BenchmarkFewShotTransfer(-|$)/ { tt=$3; tb=$5; ta=$7 }
	END {
		if (bt == "" || ot == "" || tt == "") { print "missing benchmark lines" > "/dev/stderr"; exit 1 }
		printf "{\n  \"schema_version\": 1,\n  \"report\": {\n"
		printf "    \"batched_time_ns\": %s,\n    \"batched_bytes_per_op\": %s,\n    \"batched_allocs_per_op\": %s,\n", bt, bb, ba
		printf "    \"one_time_ns\": %s,\n    \"one_bytes_per_op\": %s,\n    \"one_allocs_per_op\": %s,\n", ot, ob, oa
		printf "    \"transfer_time_ns\": %s,\n    \"transfer_bytes_per_op\": %s,\n    \"transfer_allocs_per_op\": %s\n  }\n}\n", tt, tb, ta
	}
' "$tmp/bench.out" >"$tmp/allocs.json" || {
	echo "check.sh: could not parse benchmark output:" >&2
	cat "$tmp/bench.out" >&2
	exit 1
}
"$tmp/knowtrans" obs diff BENCH_allocs.json "$tmp/allocs.json" -rel-tol 0.5 >/dev/null || {
	echo "check.sh: allocation gate regressed vs committed BENCH_allocs.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_allocs.json "$tmp/allocs.json" -rel-tol 0.5 >&2 || true
	exit 1
}
echo "check.sh: tier-2 allocation gate passed"

# --- tier-2: cluster gate ----------------------------------------------------
# The sharded serving tier's chaos drill: `route -selftest` spawns a
# 3-backend fleet as subprocesses, drives two 256-request 64-concurrent
# seeded load phases through two router replicas (one hedging, one
# failover-only), SIGKILLs one backend a quarter of the way into the
# second phase, and itself exits non-zero unless every request succeeded
# with answers byte-identical to the direct path, hedges AND failovers
# were recorded, the corpse was ejected by the health probes, its keys
# were re-served by replicas, and the surviving backends drained clean
# (exit 0) on SIGTERM. check.sh additionally pins the zero-failure
# verdicts in the written record and diffs its latency/throughput profile
# against the committed baseline (generous tolerance: a degraded-phase
# profile depends on kill timing).
"$tmp/knowtrans" route -selftest -scale 0.05 -seed 7 \
	-selftest-requests 256 -selftest-concurrency 64 -selftest-adapters 4 \
	-faults rate=0.3,seed=9 -bench "$tmp/cluster.json" >"$tmp/cluster.out" || {
	echo "check.sh: route selftest failed:" >&2
	cat "$tmp/cluster.out" >&2
	exit 1
}
[ -s "$tmp/cluster.json" ] || {
	echo "check.sh: route selftest wrote no BENCH_cluster.json" >&2
	exit 1
}
for want in '"non_2xx": 0' '"mismatches": 0' '"requests": 512'; do
	grep -q "$want" "$tmp/cluster.json" || {
		echo "check.sh: BENCH_cluster.json lacks $want" >&2
		cat "$tmp/cluster.json" >&2
		exit 1
	}
done
hedges=$(sed -n 's/^ *"hedges": \([0-9]*\),\{0,1\}$/\1/p' "$tmp/cluster.json")
failovers=$(sed -n 's/^ *"failovers": \([0-9]*\),\{0,1\}$/\1/p' "$tmp/cluster.json")
if [ -z "$hedges" ] || [ "$hedges" = 0 ] || [ -z "$failovers" ] || [ "$failovers" = 0 ]; then
	echo "check.sh: BENCH_cluster.json records hedges='$hedges' failovers='$failovers', want both > 0" >&2
	exit 1
fi
"$tmp/knowtrans" obs diff BENCH_cluster.json "$tmp/cluster.json" -rel-tol 1.0 >/dev/null || {
	echo "check.sh: cluster gate regressed vs committed BENCH_cluster.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_cluster.json "$tmp/cluster.json" -rel-tol 1.0 >&2 || true
	exit 1
}
echo "check.sh: tier-2 cluster gate passed ($hedges hedges, $failovers failovers, 0 failed requests)"

# --- tier-2: jobs gate -------------------------------------------------------
# The bulk tier's crash-recovery drill: `job -selftest` spawns a 2-backend
# fleet, runs a 64-row 8-shard job uninterrupted, runs the same rows as a
# subprocess that SIGKILLs itself after 2 fsynced shard commits, tears the
# checkpoint tail the way a second mid-append kill would, resumes, and
# itself exits non-zero unless the resumed output is byte-identical to the
# uninterrupted run with zero duplicated Transfers anywhere in the fleet,
# zero lost rows (retries absorb the 30% fault rate), and a canonical
# error envelope on the probe. check.sh pins those verdicts in the written
# record — the 0/1 verdict fields sit inside obs diff's tolerance, so a
# flip to 0 must fail here, not there — and re-plans the kept spec twice
# to pin dry-run determinism from the CLI surface.
"$tmp/knowtrans" job -selftest -scale 0.05 -seed 7 \
	-faults rate=0.3,seed=9 -bench "$tmp/jobs.json" \
	-workdir "$tmp/jobswork" >"$tmp/jobs.out" || {
	echo "check.sh: job selftest failed:" >&2
	cat "$tmp/jobs.out" >&2
	exit 1
}
grep -q 'error envelope ok' "$tmp/jobs.out" || {
	echo "check.sh: job selftest never probed the error envelope" >&2
	exit 1
}
[ -s "$tmp/jobs.json" ] || {
	echo "check.sh: job selftest wrote no BENCH_jobs.json" >&2
	exit 1
}
for want in '"byte_identical": 1' '"plan_deterministic": 1' \
	'"duplicate_transfers": 0' '"row_failures": 0' \
	'"truncated_tail_recovered": 1'; do
	grep -q "$want" "$tmp/jobs.json" || {
		echo "check.sh: BENCH_jobs.json lacks $want" >&2
		cat "$tmp/jobs.json" >&2
		exit 1
	}
done

# Dry-run determinism from the CLI: the same spec must render the same
# plan bytes on every invocation (no timestamps, no map ordering).
"$tmp/knowtrans" job plan -spec "$tmp/jobswork/specA.json" >"$tmp/plan1.out"
"$tmp/knowtrans" job plan -spec "$tmp/jobswork/specA.json" >"$tmp/plan2.out"
cmp -s "$tmp/plan1.out" "$tmp/plan2.out" || {
	echo "check.sh: job plan rendered different bytes across invocations:" >&2
	diff "$tmp/plan1.out" "$tmp/plan2.out" >&2 || true
	exit 1
}

# Envelope enforcement, statically: the serving packages must route every
# HTTP error through the envelope writer, never raw http.Error.
if grep -rn 'http\.Error(' internal/serve internal/cluster internal/jobs; then
	echo "check.sh: raw http.Error in a serving package — use serve.WriteError" >&2
	exit 1
fi

"$tmp/knowtrans" obs diff BENCH_jobs.json "$tmp/jobs.json" -rel-tol 1.0 >/dev/null || {
	echo "check.sh: jobs gate regressed vs committed BENCH_jobs.json:" >&2
	"$tmp/knowtrans" obs diff BENCH_jobs.json "$tmp/jobs.json" -rel-tol 1.0 >&2 || true
	exit 1
}
echo "check.sh: tier-2 jobs gate passed (kill/resume byte-identical, 0 duplicated transfers)"
echo "check.sh: all gates passed"
