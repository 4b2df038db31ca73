#!/usr/bin/env bash
#
# Pre-merge gate: run every check tier in sequence and print one
# summary. This is the command to run before merging a change — it is
# exactly what CI runs, in the same order:
#
#   1. tier-1: default build (build/) + full ctest suite
#   2. TSan:   tools/run_tsan.sh        (build-tsan/, concurrency suites)
#   3. ASan:   tools/run_sanitizers.sh  (build-asan/, +UBSan, memory suites)
#   4. a check that the service's tenant-churn stress case ran in
#      all three tiers above
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

# The tenant-churn stress case is the regression test for the fleet's
# victim-order heap overflow, which only the sanitizers see reliably,
# so it must run in every tier: the tier's ctest log shows test_service
# passing, and the tier's test_service binary contains the case.
STRESS_CASE='TenantChurnStressKeepsVictimOrderInBounds'
stress_case_ran() {
    local log="$1" dir="$2"
    grep -Eq 'test_service \.+ +Passed' "${log}" &&
        "${dir}/tests/test_service" --gtest_list_tests |
        grep -q "${STRESS_CASE}"
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
run_tier "stress case in all tiers" eval \
    'stress_case_ran "${LOG_DIR}/0.log" "${BUILD_DIR}" &&
     stress_case_ran "${LOG_DIR}/1.log" "${REPO_ROOT}/build-tsan" &&
     stress_case_ran "${LOG_DIR}/2.log" "${REPO_ROOT}/build-asan"'

echo
echo "==== summary ===="
status=0
for i in "${!NAMES[@]}"; do
    printf '  %-24s %s\n' "${NAMES[$i]}" "${RESULTS[$i]}"
    [[ "${RESULTS[$i]}" == "PASS" ]] || status=1
done
exit "${status}"
