#!/bin/sh
# Configures a separate sanitizer build tree and runs ctest under it. Any
# sanitizer report aborts the offending test (-fno-sanitize-recover=all), so
# a green run means the suite is clean, not just functionally passing.
#
#   tools/run_sanitized_ctest.sh [asan|tsan] [build-dir]
#
# asan (default): AddressSanitizer+UBSan over the full tier-1 suite in
#                 build-asan/.
# tsan:           ThreadSanitizer over the concurrency surface — the campaign
#                 subsystem (thread pool, runner, parallel VPs), the parallel
#                 fuzz harness, and the CLI front ends — in build-tsan/.
#                 TSan and ASan cannot share a process, hence the mode split.
#
# Back-compat: a first argument that is not a mode name is taken as the
# build dir of an asan run (the script's original single-argument form).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode=asan
case "${1:-}" in
  asan|tsan) mode=$1; shift ;;
esac

if [ "$mode" = tsan ]; then
  build=${1:-"$repo/build-tsan"}
  sanitize=thread
  # The threading tests: campaign subsystem + parallel fuzz + CLI tests that
  # exercise --jobs, plus the fork-campaign and block-engine suites so the
  # variant-dispatch and chaining paths run under TSan too (ForkCampaign and
  # BlockEngine are NOT matched by Fi[A-Z] — spell them out). The service
  # resilience suite joins the list because the worker heartbeat thread
  # shares the socketpair (and a progress counter) with the op loop.
  filter='campaign|Campaign|ParallelVp|ThreadPool|Runner\.|Aggregator|FuzzCampaign|cli\.|Fi[A-Z]|ForkCampaign|BlockEngine|ServiceResilience|WorkerHeartbeat|ClientDeadline'
else
  build=${1:-"$repo/build-asan"}
  sanitize=ON
  filter=''
fi

cmake -B "$build" -S "$repo" -DVPDIFT_SANITIZE="$sanitize"
cmake --build "$build" -j "$(nproc)"
cd "$build"
if [ -n "$filter" ]; then
  ctest --output-on-failure -j "$(nproc)" -R "$filter"
else
  ctest --output-on-failure -j "$(nproc)"
fi
