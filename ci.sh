#!/usr/bin/env bash
# Local CI: build the Release and sanitizer presets and run the full test
# suite under each.  Usage: ./ci.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)

# Tests carry ctest labels (tier1 / slow / chaos — see tests/CMakeLists.txt).
# The tier-1 pass is the fast merge gate; the labelled tiers run after it so
# a chaos or slow failure never hides a unit-test failure.
run_preset() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L tier1 \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "chaos|slow" \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
}

CTEST_ARGS=("$@")

# CPA_WERROR stays off: GCC 12's -O3 -Werror=restrict false-positives on
# std::string concatenation in pre-existing tests.
echo "== Release =="
run_preset build-release -DCMAKE_BUILD_TYPE=Release

echo "== ASan+UBSan =="
run_preset build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCPA_SANITIZE=address,undefined

# Differential oracles, explicitly and at full depth, under the sanitizer
# build: 24 seeds x 4500 randomized flow-network mutations, and 24 seeds of
# plant-shaped churn (striped NSD groups, serial trunk/NIC/SAN legs) whose
# completions are checked too, each mutation checked bit-for-bit against
# the from-scratch water-filling reference (the full ctest pass above
# already ran them once; this run is the gate that fails loudly on any
# rate divergence or misfired completion).
echo "== Flow-scheduler differential oracles (ASan) =="
./build-asan/tests/simcore_test \
  --gtest_filter='RandomChurn/FlowOracle.*:PlantChurn/FlowCompletionOracle.*'
# The metadb table against its reference model: 16 seeds x 20,000 random
# row mutations over a table whose index chunks split and drain many
# times, every query shape compared with a std::map + std::set model.  A
# string-index entry that outlives its row only shows up here, as an ASan
# heap-use-after-free.
echo "== metadb table reference-model oracle (ASan) =="
./build-asan/tests/metadb_test --gtest_filter='RandomOps/TableProperty.*'
# The TSM export, a view over indexes on the object table, against its
# reference model: 12 seeds x 2,000 random object records, re-records,
# aggregates, deletes, checkpoints and WAL-replayed power failures on one
# archive server; after every batch each lookup must return the lowest
# object id the model holds for that path or file id, never an aggregate.
echo "== TSM export view reference-model oracle (ASan) =="
./build-asan/tests/metadb_test --gtest_filter='RandomOps/ExportViewOracle.*'
# The tape library's per-(tenant, class) drive lanes against the single
# FIFO they replaced: 16 seeds x 5,000 random acquires by four tenants in
# all three classes, releases, drive failures and repairs, time jumps over
# several aging steps and power failures, each under its own admission
# scheduler.  Every grant (request and drive), every quota refusal and the
# drive-queue-jump count must match the reference, grant by grant.
echo "== Drive-lane differential oracle (ASan) =="
./build-asan/tests/sched_test --gtest_filter='RandomOps/LaneOracle.*'
# The WAL redo decoder against mutants of a valid record of every kind:
# truncated at every byte, flipped at every bit, digits swapped for a
# letter, sign or blank, fields dropped or repeated, records spliced
# (7,492 mutants), then whole log images with every frame header
# corrupted.  Each mutant must be skipped or apply exactly as the valid
# record it decodes to, and the next record must still replay; here ASan
# and UBSan also watch every byte the decoder reads.  The fault-spec and
# restart-journal parsers get the same mutants of ten valid inputs each
# (4,749 and 2,662): each must fail to parse or parse to a value whose
# canonical text parses back to itself.
echo "== Decoder mutation fuzz (ASan) =="
./build-asan/tests/wal_test --gtest_filter='RedoFuzz.*'
./build-asan/tests/fault_test --gtest_filter='FaultPlanFuzz.*'
./build-asan/tests/pftool_test --gtest_filter='RestartJournalFuzz.*'
# The inline string that holds catalog paths and inode names, against a
# std::string model: 16 seeds x N = 16 and 32, every assignment, copy,
# move and self-assignment at lengths around the inline boundary, with
# embedded NULs and high bytes.  LeakSanitizer reports a heap buffer a
# move or an assignment lost.
echo "== Inline string reference-model oracle (ASan) =="
./build-asan/tests/simcore_test --gtest_filter='InlineString.*'

# ThreadSanitizer over pftool::rt, the only code that runs real threads
# (worker pool, mutexes, condition variables).  Only the rt engine tests
# are built and run; halt_on_error turns any data-race or lock-order
# report into a non-zero exit.
echo "== pftool::rt engine (TSan) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCPA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target pftool_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/pftool_test \
  --gtest_filter='RtEngineTest.*'

# The host-cost ledger (Release build: host ns, ops/s and heap bytes are
# wall-clock and allocator measurements): the metadb tables' bytes and ns
# per migrated file, policy-scan cost per inode, and flow-network churn.
# host_check exits non-zero if the incremental flow rates diverge from the
# reference at any checkpoint, or the object catalog (with the TSM export's
# indexes) and the fixity table hold more than 300 bytes per file at 100k
# files.
echo "== host_check (Release) =="
./build-release/bench/host_check --json=build-release/BENCH_host.json

# The paper ledger (Release build): every figure and section experiment
# and every other result in simulated time, with the Figs 8-11 campaign
# run once.  paper_check prints every row and then exits non-zero if any
# claim failed: an ordering, a bound taken from the paper's wording or an
# experiment's stated target, or an equality of two accountings.
# Report-only rows are not asserted; the regression gate below pins them.
echo "== paper_check ledger (Release) =="
./build-release/bench/paper_check --json=build-release/BENCH_paper.json

# The benchmark's workloads end to end, for correctness: --seconds 0 runs
# each workload's panel of six instances once, and run.py exits non-zero
# when a check fails (campaign job outcomes and copy counts, restore
# fixity, acknowledged migrates and deletes after the small-file power
# fail).
echo "== archbench workload checks (Release) =="
for w in campaign restore small_files; do
  python3 archbench/run.py --workload "$w" --seed 1 --seconds 0
done

# The paper ledger again, under the sanitizer build and with the campaign
# profiled: the fault matrix, scrub, fair-share, recovery and metadata-
# batching experiments run here at full size with ASan+UBSan watching, and
# paper_check exits non-zero if a claim fails or the profiler's bucket
# decomposition of any campaign job does not sum exactly to its
# wall-clock.  The gate below compares its JSON with the Release one's
# baseline: a simulated result may not depend on the build or on tracing.
echo "== paper_check ledger, profiled (ASan) =="
./build-asan/bench/paper_check --profile=/dev/null --json=build-asan/BENCH_paper.json

# Chaos smoke (under the sanitizer build): the deterministic simulation
# harness replays the checked-in seed corpus (one seed per past bug class,
# ops pinned in the file), then sweeps a handful of fresh seeds at a
# bounded op count — CPA_CHECK_OPS scales the sweep depth for bigger
# machines.  On any invariant violation cpa_check prints the violation and
# a copy-pasteable `cpa_check --seed=... --shrink` repro line and exits
# non-zero.  The two --doctor self-tests prove the oracles and the
# shrinker still catch a planted bug (a silently rotted segment, a dropped
# fixity row) — a gate that cannot fail is not a gate.
echo "== Chaos smoke (ASan) =="
CHAOS_OPS="${CPA_CHECK_OPS:-150}"
./build-asan/bench/cpa_check --corpus=tests/check/seed_corpus.txt
CPA_CHECK_OPS="$CHAOS_OPS" ./build-asan/bench/cpa_check --seed=1 --seeds=4
# The same chaos battery with 16 mutations per metadata round-trip, no
# crashes: the chains that continue on `applied` (copy registration,
# recall entries and fallbacks, reclaim segments, scrub repairs) change
# timing only at B>1, and run batched here and in the crash matrix below.
./build-asan/bench/cpa_check --seed=1 --seeds=20 --ops="$CHAOS_OPS" --md-batch=16
./build-asan/bench/cpa_check --seed=11 --ops=120 --doctor=scrub
./build-asan/bench/cpa_check --seed=11 --ops=120 --doctor=fixity

# Crash matrix (under the sanitizer build): the same chaos campaigns with
# whole-archive power failures mixed into the op stream — every metadata
# mutation rides the WAL (at B=1 each round-trip waits for its group
# commit), each crash-restart op tears the un-fsynced tail at an
# op-derived seed and replays recovery, and each seed additionally runs
# the quiescent metamorphic gate (drained plant + crash + recover must
# equal the never-crashed state digest).  Zero invariant violations
# required; durably-acked files must restore byte-exact after recovery.
echo "== Crash matrix (ASan) =="
./build-asan/bench/cpa_check --seed=1 --seeds=20 --ops="$CHAOS_OPS" --crashes

# The same crash matrix at 8 mutations per round-trip: power failures
# land on in-flight multi-op batches, which must tear away whole (no
# partial batch in the recovered catalog, no leaked completion callbacks).
echo "== Crash matrix, batched metadata (ASan) =="
./build-asan/bench/cpa_check --seed=1 --seeds=20 --ops="$CHAOS_OPS" --crashes --md-batch=8

# Perf-regression gate: diff the freshly produced BENCH_*.json against the
# checked-in baselines.  CPA_UPDATE_BASELINE=1 regenerates the baselines
# instead of gating (mirroring CPA_UPDATE_GOLDEN for the campaign digest).
echo "== bench regression gate =="
BASELINES=bench/baselines
REGRESS=./build-release/bench/bench_regress
if [[ "${CPA_UPDATE_BASELINE:-0}" == "1" ]]; then
  mkdir -p "$BASELINES"
  cp build-release/BENCH_host.json "$BASELINES/BENCH_host.json"
  cp build-release/BENCH_paper.json "$BASELINES/BENCH_paper.json"
  echo "baselines regenerated in $BASELINES"
else
  # Host rows.  Pool, row and scan counts, virtual scan seconds, the
  # flows re-solved per churn op and the path walks per file of the scan
  # tree's build are deterministic: exact.  Heap bytes
  # follow from the row and inode layouts and the allocator, so only a
  # collapse (node-per-entry storage, or a child table on every file,
  # creeping back) trips the 20% bound.  Host ns and ops/s are wall-clock,
  # so only a several-fold slowdown trips theirs.
  HOST_METRICS=(--metric=pools --metric=touched_per_op
    --metric=ops_per_sec:75:higher
    --metric=inodes --metric=matches --metric=virtual_scan_s
    --metric=walks_per_file
    --metric=host_ns_per_inode:300:lower --metric=heap_bytes_per_inode:20:lower
    --metric=rows_objects --metric=rows_export --metric=rows_fixity
    --metric=bytes_per_file:20:lower
    --metric=upsert_ns:300:lower --metric=by_path_ns:300:lower
    --metric=by_gpfs_file_id_ns:300:lower)
  "$REGRESS" --baseline="$BASELINES/BENCH_host.json" \
    --fresh=build-release/BENCH_host.json --key=id "${HOST_METRICS[@]}"
  # Every ledger row is simulated time, so each row's values and measured
  # text must match exactly, row by row, in both builds.
  for ledger in build-release/BENCH_paper.json build-asan/BENCH_paper.json; do
    "$REGRESS" --baseline="$BASELINES/BENCH_paper.json" \
      --fresh="$ledger" --key=id \
      --metric=value --metric=ref --metric=measured
  done
  # Self-tests: a doctored baseline and a baseline missing a record (a
  # fresh point nobody pinned) must each trip the gate (exit non-zero).
  doctored=$(mktemp)
  for edit in 's/"touched_per_op": 99.000/"touched_per_op": 98.000/' \
      '/"id": "flow_churn.clusters_100"/d'; do
    sed -E "$edit" "$BASELINES/BENCH_host.json" > "$doctored"
    if "$REGRESS" --baseline="$doctored" \
        --fresh=build-release/BENCH_host.json --key=id \
        "${HOST_METRICS[@]}" >/dev/null 2>&1; then
      echo "ERROR: regression gate passed a doctored baseline ($edit)" >&2
      rm -f "$doctored"
      exit 1
    fi
  done
  rm -f "$doctored"
fi

echo "CI passed."
