#!/usr/bin/env bash
#
# ASan+UBSan CI job: build with LOTUS_SANITIZE=address (which bundles
# UBSan, see the top-level CMakeLists.txt) and run the suites that
# chew on attacker-shaped or lifecycle-heavy inputs — the decoded-
# sample cache (spill-file parser, mmap reads, eviction recycling) and
# the fault-injection corruption sweeps — plus the image codec, whose
# decoder is the other untrusted-bytes surface.
#
#   tools/run_sanitizers.sh              # build into build-asan/ and run
#   BUILD_DIR=out tools/run_sanitizers.sh
#   tools/run_sanitizers.sh -R 'test_cache'   # extra args go to ctest
#
# The TSan counterpart is tools/run_tsan.sh.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-asan}"

# test_hwcount and test_trace joined for the PMU attribution and
# store-I/O trace paths (perf fd lifecycle, IoEvent round-trips).
# test_remote_store and test_read_ahead cover the staged-blob handoff
# and the prefetch window's entry lifecycle (move-outs, cancellation).
# test_tuner exercises reconfigure(): worker teardown/respawn and the
# build-then-swap read-ahead engine replacement between epochs.
# test_service covers the multi-tenant service's build lifecycle:
# canceled-epoch draining, disconnect reaping, the reorder buffer's
# message move-outs, and the tenant-churn stress case for the victim
# order. test_work_stealing drives the same fleet as a solo loader's
# private engine: per-epoch fleet start/teardown, mid-epoch
# destruction, and error-aborted epochs.
ASAN_TESTS='test_cache|test_fault_injection|test_image_codec|test_dataflow|test_pipeline|test_hwcount|test_trace|test_remote_store|test_read_ahead|test_tuner|test_work_stealing|test_service$'

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DLOTUS_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target test_cache test_fault_injection test_image_codec \
             test_dataflow test_pipeline test_hwcount test_trace \
             test_remote_store test_read_ahead test_tuner \
             test_service test_work_stealing

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
          -R "${ASAN_TESTS}" "$@"
