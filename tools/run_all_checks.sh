#!/usr/bin/env bash
#
# Pre-merge gate: run every check tier in sequence and print one
# summary. This is the command to run before merging a change — it is
# exactly what CI runs, in the same order:
#
#   1. tier-1: default build (build/) + full ctest suite
#   2. TSan:   tools/run_tsan.sh        (build-tsan/, concurrency suites)
#   3. ASan:   tools/run_sanitizers.sh  (build-asan/, +UBSan, memory suites)
#   4. a check that the regression cases below ran in all three
#      tiers above
#
#   tools/run_all_checks.sh              # all three tiers
#   BUILD_DIR=out tools/run_all_checks.sh  # relocate the tier-1 build only
#
# Each tier runs even if an earlier one failed (so one pass reports
# every broken tier, not just the first); the exit code is non-zero if
# any tier failed.

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
LOG_DIR="$(mktemp -d)"
trap 'rm -rf "${LOG_DIR}"' EXIT

declare -a NAMES=() RESULTS=()

# Runs a tier, keeping its output in ${LOG_DIR}/<tier index>.log.
run_tier() {
    local name="$1"
    shift
    echo
    echo "==== ${name}: $* ===="
    if "$@" 2>&1 | tee "${LOG_DIR}/${#NAMES[@]}.log"; then
        RESULTS+=("PASS")
    else
        RESULTS+=("FAIL")
    fi
    NAMES+=("${name}")
}

# Cases that must run in every tier, as "<test binary> <case>": the
# tenant-churn stress case is the regression test for the fleet's
# victim-order heap overflow, which only the sanitizers see reliably;
# the half-budget-cache read-ahead case drives the engine-to-cache
# residency check (I/O threads taking cache shard locks) against
# cache hits releasing window slots, a lock path TSan and ASan must
# both cover; the trace-sum cases check that every span hands one
# duration to its trace record and its histogram, with fleet and
# round-robin workers logging concurrently. A case ran when the tier's ctest log shows its binary
# passing and the tier's binary lists the case.
REQUIRED_CASES=(
    'test_service TenantChurnStressKeepsVictimOrderInBounds'
    'test_read_ahead HalfBudgetCacheKeepsWindowFlowing'
    'test_trace TraceSpansSumToTheirHistogramsSynchronous'
    'test_trace TraceSpansSumToTheirHistogramsRoundRobin'
    'test_trace TraceSpansSumToTheirHistogramsWorkStealing'
)
required_cases_ran() {
    local log="$1" dir="$2" entry binary name
    for entry in "${REQUIRED_CASES[@]}"; do
        read -r binary name <<<"${entry}"
        grep -Eq "${binary} \.+ +Passed" "${log}" &&
            "${dir}/tests/${binary}" --gtest_list_tests |
            grep -q "${name}" || {
            echo "${name} (${binary}) did not run in ${dir}"
            return 1
        }
    done
}

tier1() {
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" &&
        cmake --build "${BUILD_DIR}" -j "$(nproc)" &&
        ctest --test-dir "${BUILD_DIR}" --output-on-failure
}

run_tier "tier-1 (build + ctest)" tier1
run_tier "TSan" env BUILD_DIR="${REPO_ROOT}/build-tsan" \
    "${REPO_ROOT}/tools/run_tsan.sh"
run_tier "ASan/UBSan" env BUILD_DIR="${REPO_ROOT}/build-asan" \
    "${REPO_ROOT}/tools/run_sanitizers.sh"
run_tier "required cases in all tiers" eval \
    'required_cases_ran "${LOG_DIR}/0.log" "${BUILD_DIR}" &&
     required_cases_ran "${LOG_DIR}/1.log" "${REPO_ROOT}/build-tsan" &&
     required_cases_ran "${LOG_DIR}/2.log" "${REPO_ROOT}/build-asan"'

echo
echo "==== summary ===="
status=0
for i in "${!NAMES[@]}"; do
    printf '  %-28s %s\n' "${NAMES[$i]}" "${RESULTS[$i]}"
    [[ "${RESULTS[$i]}" == "PASS" ]] || status=1
done
exit "${status}"
