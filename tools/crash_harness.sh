#!/usr/bin/env bash
# Crash-fault injection harness: SIGKILL a real loom_partition child
# mid-stream, resume from whatever LOOMCK checkpoint survived on disk, and
# require the finished run to be bit-identical to an uninterrupted
# reference — same assignment set, same edge cut, same imbalance. A first
# leg also requires a run from the text graph file (g.lg) to reproduce the
# reference byte for byte.
#
# This is the out-of-process half of the recovery story
# (tests/crash_recovery_test.cc cuts runs in-process at exact kill points;
# here the kill lands wherever the scheduler puts it, including mid-commit,
# which is exactly what the two-slot rotation must survive).
#
# Usage: tools/crash_harness.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

BIN_DIR="${1:-build}"
GEN="$BIN_DIR/loom_generate"
PART="$BIN_DIR/loom_partition"
for bin in "$GEN" "$PART"; do
  if [ ! -x "$bin" ]; then
    echo "crash_harness: missing binary $bin (build the repo first)" >&2
    exit 2
  fi
done

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

SEED=20260808  # fixed: the reference and every crash attempt see one stream
COMMON=(--workload "$WORKDIR/q.lw" --system loom --k 8 --window 2000)

echo "== generating fixed-seed dataset + stream (seed $SEED)"
"$GEN" --dataset provgen --scale 3.0 \
  --graph-out "$WORKDIR/g.lg" --workload-out "$WORKDIR/q.lw" \
  --write-stream "$WORKDIR/s.les" --order bfs --seed "$SEED" >/dev/null 2>&1

echo "== reference run (uninterrupted)"
"$PART" --input "$WORKDIR/s.les" "${COMMON[@]}" \
  --out "$WORKDIR/ref.tsv" --evaluate 2> "$WORKDIR/ref.log"
REF_QUALITY=$(grep -o 'edge cut: [0-9]* / [0-9]*, imbalance [0-9.]*%' "$WORKDIR/ref.log")
echo "   $REF_QUALITY"

# The same partitioning must come out of the text graph file: load g.lg,
# replay it in the same BFS order and seed, and require the assignment file
# to be byte-identical to the LOOMES-stream reference. This is the only leg
# that reads a .lg file end to end through loom_partition.
echo "== text-graph run (--graph g.lg, same order and seed)"
"$PART" --graph "$WORKDIR/g.lg" --order bfs --seed "$SEED" "${COMMON[@]}" \
  --out "$WORKDIR/graph.tsv" --evaluate 2> "$WORKDIR/graph.log"
GRAPH_QUALITY=$(grep -o 'edge cut: [0-9]* / [0-9]*, imbalance [0-9.]*%' "$WORKDIR/graph.log")
echo "   $GRAPH_QUALITY"
if ! cmp -s "$WORKDIR/ref.tsv" "$WORKDIR/graph.tsv"; then
  echo "crash_harness: FAIL — the --graph g.lg run's assignments differ from the stream reference" >&2
  exit 1
fi
if [ "$REF_QUALITY" != "$GRAPH_QUALITY" ]; then
  echo "crash_harness: FAIL — --graph quality '$GRAPH_QUALITY' vs stream '$REF_QUALITY'" >&2
  exit 1
fi

# Crash loop: start a checkpointing child, SIGKILL it as soon as the first
# checkpoint appears on disk. If the child managed to finish before the
# kill landed, the attempt proves nothing — retry.
killed=0
for attempt in $(seq 1 20); do
  rm -f "$WORKDIR"/ck.loomck "$WORKDIR"/ck.loomck.prev "$WORKDIR"/ck.loomck.tmp
  "$PART" --input "$WORKDIR/s.les" "${COMMON[@]}" \
    --out "$WORKDIR/crash.tsv" \
    --checkpoint "$WORKDIR/ck.loomck" --checkpoint-every 10000 \
    2> "$WORKDIR/crash.log" &
  pid=$!
  while kill -0 "$pid" 2>/dev/null && [ ! -f "$WORKDIR/ck.loomck" ]; do
    sleep 0.005
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null && status=0 || status=$?
  if [ "$status" -eq 137 ] && [ -f "$WORKDIR/ck.loomck" ]; then
    echo "== attempt $attempt: SIGKILL landed mid-stream ($(grep -c checkpointed "$WORKDIR/crash.log" || true) checkpoints written)"
    killed=1
    break
  fi
  echo "   attempt $attempt: child finished before the kill (status $status), retrying"
done
if [ "$killed" -ne 1 ]; then
  echo "crash_harness: FAIL — could not land a mid-stream SIGKILL in 20 attempts" >&2
  exit 1
fi

echo "== resuming from the surviving checkpoint"
"$PART" --input "$WORKDIR/s.les" "${COMMON[@]}" \
  --out "$WORKDIR/resumed.tsv" --resume "$WORKDIR/ck.loomck" \
  --evaluate 2> "$WORKDIR/resume.log"
grep 'resumed from' "$WORKDIR/resume.log" | sed 's/^/   /'
RES_QUALITY=$(grep -o 'edge cut: [0-9]* / [0-9]*, imbalance [0-9.]*%' "$WORKDIR/resume.log")
echo "   $RES_QUALITY"

# The bar: identical assignment set (placement order legitimately differs —
# the resumed run re-emits restored placements first) and identical quality.
sort "$WORKDIR/ref.tsv" > "$WORKDIR/ref.sorted"
sort "$WORKDIR/resumed.tsv" > "$WORKDIR/resumed.sorted"
if ! cmp -s "$WORKDIR/ref.sorted" "$WORKDIR/resumed.sorted"; then
  echo "crash_harness: FAIL — resumed assignments diverge from the reference:" >&2
  diff "$WORKDIR/ref.sorted" "$WORKDIR/resumed.sorted" | head -20 >&2
  exit 1
fi
if [ "$REF_QUALITY" != "$RES_QUALITY" ]; then
  echo "crash_harness: FAIL — quality drifted: '$REF_QUALITY' vs '$RES_QUALITY'" >&2
  exit 1
fi

echo "crash_harness: PASS — resumed run is bit-identical to the uninterrupted reference"
