#!/usr/bin/env bash
# ci.sh - the tier-1 verification the repo must always pass, plus the
# sanitizer and chaos jobs that guard the concurrent and failure paths.
#
# Usage:
#   scripts/ci.sh            # Release build + full ctest suite
#   scripts/ci.sh tsan       # TSan build: attrspace stress + chaos/fuzz tier
#   scripts/ci.sh asan       # ASan+UBSan build of the chaos/fuzz tier
#   scripts/ci.sh chaos      # chaos tier: fixed seeds + one time-derived
#                            # seed (printed, so any failure is replayable)
#   scripts/ci.sh chaos-kill # daemon-death kill matrix only: paradynd /
#                            # startd / schedd killed mid-run over the
#                            # fixed seeds (fast subset for PR gating)
#   scripts/ci.sh analyze    # lock-discipline gate: the tdpsa static
#                            # analyzer always (self-test + whole-program
#                            # pass + SARIF, verdict-cached on the source
#                            # hash); clang -Wthread-safety -Werror +
#                            # clang-tidy where a clang toolchain exists
#                            # (skipped otherwise)
#   scripts/ci.sh bench      # benchmark emitters: BENCH_attrspace.json +
#                            # BENCH_telemetry.json at the repo root
#   scripts/ci.sh bench-wire # wire/proxy/journal bench: refreshes
#                            # BENCH_wire.json and fails on a >10% proxy
#                            # throughput regression vs the committed copy
#   scripts/ci.sh bench-flightrec # flight-recorder overhead bench:
#                            # refreshes BENCH_flightrec.json and fails
#                            # when the recorder-on steady state is >5%
#                            # slower than recorder-off
#   scripts/ci.sh bench-frontdoor # admission/matchmaker bench: 100k jobs
#                            # over 1k tenants; refreshes
#                            # BENCH_frontdoor.json and fails unless the
#                            # indexed matchmaker beats the full scan and
#                            # brownout shedding stays fair
#   scripts/ci.sh bench-scale# scale tier: 10k-host ctest (-L scale with
#                            # TDP_SCALE_10K=1) + flat-vs-tree bench,
#                            # refreshes BENCH_scale.json and fails on a
#                            # >10% regression vs the committed copy
#   scripts/ci.sh perfbench  # builds the end-to-end benchmark from source
#                            # and runs one short traced control_tcp
#                            # round; fails unless it reports correct
#   scripts/ci.sh all        # everything
set -euo pipefail

cd "$(dirname "$0")/.."

run_release() {
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)"
  ctest --test-dir build-ci --output-on-failure -j"$(nproc)"
}

run_tsan() {
  # Benchmarks and examples are irrelevant under TSan; skip them to keep
  # the instrumented build small.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDP_BUILD_BENCH=OFF \
    -DTDP_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j"$(nproc)" \
    --target tdp_attr_tests tdp_chaos_tests tdp_util_tests tdp_scale_tests \
             tdp_chaos_scale_tests tdp_condor_tests \
             tdp_chaos_integration_tests tdp_proc_tests tdp_core_tests
  # The stress tests exercise the sharded store (concurrent writers,
  # readers, racing waiters) and the reactor-driven server under client
  # churn - exactly the paths a data race would hide in.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_attr_tests \
    --gtest_filter='ShardedStoreStress.*:ReactorServer.*:AttrClientEventFd.*:AttrClientResubscribe.ReadableFdSurvivesRedial'
  # The event fds: the client's eventfd is signalled after its lock is
  # released and cleared before service_events swaps the queue, the
  # backend's pidfds are reaped under its lock while wait_terminal polls a
  # duplicate, and an RM loop blocks on the session's set.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_proc_tests --gtest_filter='PosixBackend.*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_core_tests --gtest_filter='SessionEventLoopTest.*'
  # Fault injection under TSan: reconnect/replay races between the client's
  # caller thread, service_events and the server I/O thread.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_chaos_tests
  # The PR 7 hierarchical-CASS tier: lease aggregation, the mrnet
  # hierarchy and the virtual pool at 100/1k hosts. The 10k cases
  # self-skip without TDP_SCALE_10K (the sanitizer pass wants race
  # coverage, not scale), and the 1k chaos kill matrix runs with its
  # fixed seeds.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_util_tests --gtest_filter='LeaseAgg*'
  # The PR 9 flight recorder: concurrent record/snapshot/encode over the
  # sharded ring, plus the health engine's leaf-locked evaluate.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_util_tests --gtest_filter='FlightRec.*:Health.*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_scale_tests
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_chaos_scale_tests
  # The front door: the retry backoff helper, admission under the
  # leaf lock, the brownout state machine driven from publish_health, and
  # the storm chaos tier's shed/recover cycle across a concurrent schedd
  # kill.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_attr_tests \
    --gtest_filter='BackoffDelay.*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_condor_tests \
    --gtest_filter='FrontDoor*:Wrr*:ScheddFrontDoor*:MatchmakerIndex*'
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tdp_chaos_integration_tests \
    --gtest_filter='*ChaosStorm*'
}

run_asan() {
  # The fuzz/chaos tier feeds corrupted frames through every decode path;
  # ASan+UBSan turn a silent overread or leak on those paths into a failure.
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDP_BUILD_BENCH=OFF \
    -DTDP_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j"$(nproc)" --target tdp_chaos_tests tdp_net_tests
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/tdp_chaos_tests
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/tdp_net_tests
}

run_chaos() {
  # Fixed seeds are baked into the tests; add one time-derived seed per run
  # for coverage beyond the fixed set. The seed is printed first: to replay
  # a CI failure locally, export the same TDP_CHAOS_SEED and re-run.
  local extra_seed="${TDP_CHAOS_SEED:-$(date +%s)$$}"
  echo "chaos tier: fixed seeds + TDP_CHAOS_SEED=${extra_seed}"
  echo "reproduce with: TDP_CHAOS_SEED=${extra_seed} scripts/ci.sh chaos"
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" \
    --target tdp_chaos_tests tdp_chaos_integration_tests
  TDP_CHAOS_SEED="${extra_seed}" ./build-ci/tests/tdp_chaos_tests
  TDP_CHAOS_SEED="${extra_seed}" ./build-ci/tests/tdp_chaos_integration_tests
}

run_chaos_kill() {
  # The daemon-death survival matrix (tests/chaos/test_chaos_kill.cpp):
  # kill paradynd (app must survive, tool reattaches), kill startd (job
  # requeued exactly once, via journal replay and via lease expiry), kill
  # schedd (queue recovered from the write-ahead journal), plus the
  # disabled-recovery control that demonstrably loses the job. Runs the
  # fixed seeds only - deterministic, so it gates PRs without flake risk.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" --target tdp_chaos_integration_tests
  ./build-ci/tests/tdp_chaos_integration_tests \
    --gtest_filter='Seeds/ChaosKillTest.*'
}

run_bench() {
  # Machine-readable benchmark pass. Each emitter bench writes its JSON
  # into the working directory, so running from the repo root (cd above)
  # lands BENCH_attrspace.json and BENCH_telemetry.json next to README.md.
  # --benchmark_filter='^$' skips the console pass: CI wants the JSON
  # emitters (which run after RunSpecifiedBenchmarks), not console tables.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" \
    --target bench_fig2_attr_space bench_attr_primitives bench_telemetry
  ./build-ci/bench/bench_fig2_attr_space --benchmark_filter='^$'
  ./build-ci/bench/bench_attr_primitives --benchmark_filter='^$'
  ./build-ci/bench/bench_telemetry --benchmark_filter='^$'
  echo "bench: wrote BENCH_attrspace.json and BENCH_telemetry.json"
}

run_bench_wire() {
  # Wire-format / proxy-relay / journal-recovery bench with a regression
  # gate: the committed BENCH_wire.json is the baseline, and a fresh run
  # whose proxy relay throughput drops more than 10% below it fails. The
  # fresh numbers overwrite BENCH_wire.json so an intentional change is
  # committed together with the code that caused it.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" --target bench_wire
  local baseline=""
  if [[ -f BENCH_wire.json ]]; then
    baseline="$(python3 -c 'import json; print(json.load(open("BENCH_wire.json"))["proxy_relay_ops_per_sec"])')"
  fi
  ./build-ci/bench/bench_wire --benchmark_filter='^$'
  python3 - "$baseline" <<'EOF'
import json, sys
data = json.load(open("BENCH_wire.json"))
fresh = data["proxy_relay_ops_per_sec"]
speedup = data["proxy_speedup"]
print(f"bench-wire: proxy relay {fresh:.0f} ops/s "
      f"({speedup:.2f}x over decode-and-re-encode relay)")
print(f"bench-wire: 1M-record replay {data['journal_full_replay_ms']:.0f} ms, "
      f"delta replay {data['journal_delta_replay_ms']:.0f} ms")
if len(sys.argv) > 1 and sys.argv[1]:
    baseline = float(sys.argv[1])
    floor = baseline * 0.9
    print(f"bench-wire: committed baseline {baseline:.0f} ops/s, floor {floor:.0f}")
    if fresh < floor:
        print("bench-wire: FAIL - proxy relay throughput regressed >10%")
        raise SystemExit(1)
EOF
}

run_bench_scale() {
  # The PR 7 scale tier, in two halves:
  #   1. the `scale`-labeled ctest tier with the 10k cases un-skipped
  #      (TDP_SCALE_10K=1): O(fanout) root writes at 10k hosts, determinism,
  #      and the 1k-host chaos kill matrix under tree aggregation;
  #   2. the flat-vs-tree bench. The committed BENCH_scale.json is the
  #      baseline; a fresh run whose root-write reduction or tree attach
  #      p99 regresses more than 10% at any pool size fails. Every gated
  #      number is computed on the sim engine's virtual clock from a fixed
  #      seed (bit-reproducible), so 10% is slack for intentional protocol
  #      changes, not for measurement noise. The fresh numbers overwrite
  #      BENCH_scale.json so an intentional change is committed together
  #      with the code that caused it.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" \
    --target bench_scale tdp_scale_tests tdp_chaos_scale_tests
  TDP_SCALE_10K=1 ctest --test-dir build-ci -L scale --output-on-failure \
    -j"$(nproc)"
  local baseline=""
  if [[ -f BENCH_scale.json ]]; then
    baseline="$(cat BENCH_scale.json)"
  fi
  ./build-ci/bench/bench_scale --benchmark_filter='^$'
  TDP_SCALE_BASELINE="$baseline" python3 - <<'EOF'
import json, os, sys
fresh = json.load(open("BENCH_scale.json"))
for hosts in (100, 1000, 10000):
    tier = fresh[f"hosts_{hosts}"]
    print(f"bench-scale: {hosts:5d} hosts: root writes flat "
          f"{tier['flat_root_writes']} vs tree {tier['tree_root_writes']} "
          f"({tier['root_write_reduction']:.0f}x), tree attach p99 "
          f"{tier['tree_attach_p99_us']:.0f}us")
print(f"bench-scale: crossover at {fresh['crossover_hosts']} hosts")
raw = os.environ.get("TDP_SCALE_BASELINE", "")
if not raw:
    sys.exit(0)
base = json.loads(raw)
failed = False
for hosts in (100, 1000, 10000):
    got, want = fresh[f"hosts_{hosts}"], base[f"hosts_{hosts}"]
    floor = want["root_write_reduction"] * 0.9
    if got["root_write_reduction"] < floor:
        print(f"bench-scale: FAIL - root write reduction at {hosts} hosts "
              f"fell to {got['root_write_reduction']:.1f}x "
              f"(baseline {want['root_write_reduction']:.1f}x, floor {floor:.1f}x)")
        failed = True
    ceiling = want["tree_attach_p99_us"] * 1.1
    if got["tree_attach_p99_us"] > ceiling:
        print(f"bench-scale: FAIL - tree attach p99 at {hosts} hosts rose to "
              f"{got['tree_attach_p99_us']:.0f}us "
              f"(baseline {want['tree_attach_p99_us']:.0f}us, ceiling {ceiling:.0f}us)")
        failed = True
if fresh["crossover_hosts"] > base["crossover_hosts"]:
    print(f"bench-scale: FAIL - crossover moved from "
          f"{base['crossover_hosts']} to {fresh['crossover_hosts']} hosts")
    failed = True
sys.exit(1 if failed else 0)
EOF
}

run_bench_flightrec() {
  # The always-on recorder's steady-state overhead (PR 9): the bench
  # interleaves recorder-off and recorder-on batches over the fig2 round
  # trip with one recorded event per op and fails above 5% slowdown. The
  # fresh numbers overwrite BENCH_flightrec.json so an intentional change
  # is committed together with the code that caused it.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" --target bench_flightrec
  local baseline=""
  if [[ -f BENCH_flightrec.json ]]; then
    baseline="$(python3 -c 'import json; print(json.load(open("BENCH_flightrec.json"))["overhead_pct"])')"
  fi
  ./build-ci/bench/bench_flightrec --benchmark_filter='^$'
  python3 - "$baseline" <<'PYEOF'
import json, sys
data = json.load(open("BENCH_flightrec.json"))
fresh = data["overhead_pct"]
if len(sys.argv) > 1 and sys.argv[1]:
    print(f"bench-flightrec: committed baseline {float(sys.argv[1]):.2f}%")
print(f"bench-flightrec: recorder-on overhead {fresh:.2f}% (ceiling 5%)")
if fresh > 5.0:
    print("bench-flightrec: FAIL - recorder steady-state overhead above 5%")
    raise SystemExit(1)
PYEOF
}

run_bench_frontdoor() {
  # The PR 10 admission gate: 100k jobs over 1k tenants through the front
  # door. Three absolute conditions (the point of the refactor, not noise
  # margins): the indexed matchmaker must beat the full scan it replaced
  # (speedup > 1 in wall time AND in symmetric_match evaluations), a warn
  # brownout must shed ONLY below-floor tenants, and WRR dispatch across
  # the equal-weight survivors must stay fair (Jain >= 0.9). The submit
  # p99 is additionally held to 2x the committed BENCH_frontdoor.json (a
  # wall-clock number, so the slack is wide); the fresh numbers overwrite
  # the JSON so an intentional change is committed with its cause.
  cmake -B build-ci -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DTDP_WERROR=ON
  cmake --build build-ci -j"$(nproc)" --target bench_frontdoor
  local baseline=""
  if [[ -f BENCH_frontdoor.json ]]; then
    baseline="$(cat BENCH_frontdoor.json)"
  fi
  ./build-ci/bench/bench_frontdoor --benchmark_filter='^$'
  TDP_FRONTDOOR_BASELINE="$baseline" python3 - <<'EOF'
import json, os, sys
fresh = json.load(open("BENCH_frontdoor.json"))
submit, match, shed = fresh["submit"], fresh["match"], fresh["shed"]
print(f"bench-frontdoor: submit p99 {submit['p99_us']:.1f}us "
      f"({submit['jobs']} jobs, {submit['tenants']} tenants)")
print(f"bench-frontdoor: match cycle indexed {match['indexed_cycle_ms']:.2f}ms "
      f"vs full {match['full_cycle_ms']:.2f}ms "
      f"({match['speedup_time']:.1f}x time, {match['speedup_evals']:.1f}x evals)")
print(f"bench-frontdoor: shed {shed['shed_jobs']}/{shed['expected_shed']}, "
      f"misdirected {shed['misdirected_shed']}, jain {shed['survivor_jain']:.3f}")
failed = False
if match["speedup_time"] <= 1.0 or match["speedup_evals"] <= 1.0:
    print("bench-frontdoor: FAIL - indexed matchmaker does not beat the full scan")
    failed = True
if shed["shed_jobs"] != shed["expected_shed"] or shed["misdirected_shed"] != 0:
    print("bench-frontdoor: FAIL - brownout shed the wrong jobs")
    failed = True
if shed["survivor_jain"] < 0.9:
    print("bench-frontdoor: FAIL - WRR dispatch unfair across surviving tenants")
    failed = True
raw = os.environ.get("TDP_FRONTDOOR_BASELINE", "")
if raw:
    base = json.loads(raw)
    ceiling = base["submit"]["p99_us"] * 2.0
    if submit["p99_us"] > ceiling:
        print(f"bench-frontdoor: FAIL - submit p99 rose to {submit['p99_us']:.1f}us "
              f"(baseline {base['submit']['p99_us']:.1f}us, ceiling {ceiling:.1f}us)")
        failed = True
sys.exit(1 if failed else 0)
EOF
}

run_perfbench() {
  # perfbench/ builds against src/ but nothing else compiles it, so a src/
  # change that breaks the benchmark's build would only show at benchmark
  # time. One short traced round builds it (into .bench_build/) and checks
  # the run's own correctness verdict on the last line of its output.
  local out
  out="$(python3 perfbench/run.py --workload control_tcp --seed 1 \
           --seconds 10 --trace 1)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result.get("correct") is not True:
    print("perfbench: FAIL - the run did not report correct")
    sys.exit(1)
print("perfbench: control_tcp traced round correct")
'
}

find_tool() {
  # Prefer an unversioned binary, then recent versioned ones.
  local base="$1" candidate
  for candidate in "$base" "$base"-19 "$base"-18 "$base"-17 "$base"-16 \
                   "$base"-15 "$base"-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      echo "$candidate"
      return 0
    fi
  done
  return 1
}

run_analyze() {
  # The tdpsa static analyzer runs unconditionally (pure python, stdlib
  # only): first its self-test — proving it still fails on a raw
  # std::mutex and on every seeded bug in tests/analysis/corpus/ — then
  # the whole-program pass over src/ (lock graph extraction, cycle
  # detection, blocking-under-lock, DESIGN.md §10 drift, plus the ported
  # lint rules), emitting SARIF for CI annotation. A clean verdict is
  # cached keyed on everything that can change it: the sources, the
  # analyzer itself, the baseline, DESIGN.md and the corpus.
  mkdir -p build-analyze
  local akey
  akey="$(find src scripts/tdpsa scripts/tdpsa-baseline.json DESIGN.md \
               tests/analysis -type f -print0 \
            | sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)"
  local astamp="build-analyze/.tdpsa-clean-${akey}"
  # The SARIF must exist even on a cache hit (CI uploads it), so a
  # restored stamp without the artifact still re-runs the (cheap) pass.
  if [[ -f "$astamp" && -f build-analyze/tdpsa.sarif ]]; then
    echo "analyze: tdpsa cache hit (${akey:0:12}); skipping"
  else
    rm -f build-analyze/.tdpsa-clean-*
    python3 scripts/tdpsa --self-test
    python3 scripts/tdpsa --sarif build-analyze/tdpsa.sarif
    touch "$astamp"
  fi

  local clangxx
  if ! clangxx="$(find_tool clang++)"; then
    echo "analyze: no clang++ on PATH; skipping -Wthread-safety build" \
         "(the TDP_* annotations compile to nothing under gcc)"
    return 0
  fi

  # Full-tree clang build with the thread-safety analysis promoted to an
  # error: every TDP_GUARDED_BY / TDP_REQUIRES violation fails the gate.
  cmake -B build-analyze -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$clangxx" \
    -DCMAKE_CXX_FLAGS="-Werror=thread-safety" \
    -DTDP_WERROR=ON
  cmake --build build-analyze -j"$(nproc)"

  local tidy runner
  if ! tidy="$(find_tool clang-tidy)"; then
    echo "analyze: no clang-tidy on PATH; skipping the .clang-tidy checks"
    return 0
  fi

  # clang-tidy is the slow half; cache a clean verdict keyed on the hash of
  # compile_commands.json (which itself hashes the flag set and file list).
  # Touching any flag or adding a TU invalidates the cache; editing a file
  # without reconfiguring keeps the key stable, so CI wires the source tree
  # hash into TDP_TIDY_SALT to force re-runs on content changes.
  local cc_json="build-analyze/compile_commands.json"
  local key
  key="$( (sha256sum "$cc_json"; echo "${TDP_TIDY_SALT:-}") | sha256sum | cut -d' ' -f1)"
  local stamp="build-analyze/.clang-tidy-clean-${key}"
  if [[ -f "$stamp" ]]; then
    echo "analyze: clang-tidy cache hit (${key:0:12}); skipping"
    return 0
  fi
  rm -f build-analyze/.clang-tidy-clean-*
  if runner="$(find_tool run-clang-tidy)"; then
    "$runner" -clang-tidy-binary "$tidy" -p build-analyze -quiet \
      "src/.*\\.cpp$"
  else
    # No parallel runner packaged; drive clang-tidy directly.
    find src -name '*.cpp' -print0 \
      | xargs -0 -P "$(nproc)" -n 1 "$tidy" -p build-analyze --quiet
  fi
  touch "$stamp"
}

case "${1:-release}" in
  release)    run_release ;;
  tsan)       run_tsan ;;
  asan)       run_asan ;;
  chaos)      run_chaos ;;
  chaos-kill) run_chaos_kill ;;
  analyze)    run_analyze ;;
  bench)      run_bench ;;
  bench-wire) run_bench_wire ;;
  bench-scale) run_bench_scale ;;
  bench-flightrec) run_bench_flightrec ;;
  bench-frontdoor) run_bench_frontdoor ;;
  perfbench)  run_perfbench ;;
  all)        run_release; run_tsan; run_asan; run_chaos; run_analyze; run_bench; run_bench_wire; run_bench_scale; run_bench_flightrec; run_bench_frontdoor; run_perfbench ;;
  *) echo "usage: $0 [release|tsan|asan|chaos|chaos-kill|analyze|bench|bench-wire|bench-scale|bench-flightrec|bench-frontdoor|perfbench|all]" >&2
     exit 2 ;;
esac
