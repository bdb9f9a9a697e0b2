#!/usr/bin/env bash
# Runs the full test suite — including the chaos tests and their fixed-seed
# fault sweeps — under AddressSanitizer + UndefinedBehaviorSanitizer, and
# (tsan mode) the threaded shard machinery under ThreadSanitizer.
#
# This is the satellite job ROADMAP.md's robustness item calls for: every
# recovery path (reconnect, retransmission, gap handling) executes with
# memory and UB checking enabled, so a fault-injection bug that only
# corrupts memory without failing an assertion still fails the build.
#
# Usage:
#   scripts/sanitize.sh [extra ctest args...]
#     ASan+UBSan over the whole suite (or the ctest selection given).
#     e.g. scripts/sanitize.sh -R Chaos     # only the chaos suite
#
#   scripts/sanitize.sh tsan [extra ctest args...]
#     ThreadSanitizer build. Without extra args it runs the concurrency
#     surface: the shard/ring/executor/engine tests plus the chaos suite,
#     and then re-runs the chaos suite with XSEC_RIC_SHARDS forcing every
#     pipeline onto 2 and 4 worker threads, so the coordinator/worker
#     hand-off (SPSC ring, barrier, detector swap, metric drain) is
#     race-checked under real fault-injected load. A last sweep re-runs
#     the chaos + transport suites over the kernel-socket backend
#     (XSEC_E2_TRANSPORT=uds), so the batched writev/recv paths are
#     race-checked too.
#
# Builds and every ctest selection and sweep run with min(nproc, 4) jobs: a
# serial run of the default TSan selection and its sweeps takes hours (each
# heavy chaos/lifecycle test takes minutes under TSan), and an unbounded
# `-j` build can exhaust memory on a shared host.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 1)
if (( jobs > 4 )); then jobs=4; fi

preset=sanitize
if [[ "${1:-}" == "tsan" ]]; then
  preset=tsan
  shift
fi
cmake --preset "$preset"
cmake --build --preset "$preset" -j "$jobs"
if [[ $# -gt 0 || "$preset" == "sanitize" ]]; then
  exec ctest --preset "$preset" -j "$jobs" "$@"
fi

ctest --preset tsan -j "$jobs" -R 'EventQueueLanes|ShardHash|SpscRing|TaggedSlot|ShardExecutor|InferenceReplica|EngineDeterminism|CrossSiteDilution|EngineQuarantine|Chaos|Mitigation|ControlReliability|AgentSpill|Lifecycle|FrameCodec|TransportChannel|TransportBackpressure|TransportPump|TransportShortWrite'
for shards in 2 4; do
  echo "=== chaos suite with XSEC_RIC_SHARDS=$shards under TSan ==="
  XSEC_RIC_SHARDS=$shards ctest --preset tsan -j "$jobs" -R 'Chaos|LifecycleE2e'
done
echo "=== chaos suite with XSEC_E2_TRANSPORT=uds under TSan ==="
XSEC_E2_TRANSPORT=uds ctest --preset tsan -j "$jobs" \
  -R 'Chaos|TransportBackpressure|TransportPump|TransportShortWrite'
