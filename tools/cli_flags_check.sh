#!/usr/bin/env bash
# Numeric CLI flags of loom_generate, loom_partition, loom_serve and
# loom_ctl: an integer with trailing characters, a sign, or a magnitude
# past the flag's type, or a non-finite float, must exit 2 with an error
# naming the flag (never run with a truncated or wrapped value), and a
# valid run must exit 0.
#
# Usage: tools/cli_flags_check.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

BIN_DIR="${1:-build}"
GEN="$BIN_DIR/loom_generate"
PART="$BIN_DIR/loom_partition"
SERVE="$BIN_DIR/loom_serve"
CTL="$BIN_DIR/loom_ctl"
for bin in "$GEN" "$PART" "$SERVE" "$CTL"; do
  if [ ! -x "$bin" ]; then
    echo "cli_flags_check: missing binary $bin (build the repo first)" >&2
    exit 2
  fi
done

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$GEN" --dataset provgen --scale 0.05 \
  --graph-out "$WORKDIR/g.lg" --workload-out "$WORKDIR/q.lw" \
  --write-stream "$WORKDIR/s.les" --order bfs --seed 1 >/dev/null 2>&1

failures=0

# expect_rejected FLAG CMD...: CMD must exit 2 and name FLAG on stderr.
expect_rejected() {
  local flag="$1"
  shift
  local status=0
  "$@" > /dev/null 2> "$WORKDIR/err.log" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "$flag" "$WORKDIR/err.log"; then
    echo "FAIL: '$*' exited $status (want 2, naming $flag):" >&2
    sed 's/^/    /' "$WORKDIR/err.log" >&2
    failures=$((failures + 1))
  else
    echo "ok:   $flag rejected in: ${*#"$BIN_DIR"/}"
  fi
}

GEN_RUN=("$GEN" --dataset provgen --scale 0.05 --graph-out "$WORKDIR/g2.lg")
expect_rejected --seed "${GEN_RUN[@]}" --seed -1
expect_rejected --seed "${GEN_RUN[@]}" --seed 18446744073709551616
expect_rejected --seed "${GEN_RUN[@]}" --seed 7x
expect_rejected --seed "${GEN_RUN[@]}" --seed ""
expect_rejected --scale "${GEN_RUN[@]}" --scale nan

RUN=("$PART" --graph "$WORKDIR/g.lg" --workload "$WORKDIR/q.lw"
     --out "$WORKDIR/a.tsv")
expect_rejected --k "${RUN[@]}" --k 8x
expect_rejected --k "${RUN[@]}" --k 4294967297
expect_rejected --k "${RUN[@]}" --k ""
expect_rejected --k "${RUN[@]}" --k 0
expect_rejected --window "${RUN[@]}" --window -1
expect_rejected --window "${RUN[@]}" --window 18446744073709551616
expect_rejected --seed "${RUN[@]}" --seed 1.5
expect_rejected --checkpoint-every "${RUN[@]}" --checkpoint-every 10k
expect_rejected --rebalance-to "$PART" --rebalance-to +4 \
  --edge-assignments "$WORKDIR/none.tsv"

SERVE_RUN=("$SERVE" --socket "$WORKDIR/s.sock" --workload "$WORKDIR/q.lw"
           --like "$WORKDIR/s.les")
expect_rejected --k "${SERVE_RUN[@]}" --k 0x8
expect_rejected --k "${SERVE_RUN[@]}" --k 0
expect_rejected --window "${SERVE_RUN[@]}" --window -1
expect_rejected --checkpoint-every "${SERVE_RUN[@]}" --checkpoint-every 1e3 \
  --checkpoint "$WORKDIR/ck.loomck"

expect_rejected --from "$CTL" --socket "$WORKDIR/none.sock" \
  ingest-file "$WORKDIR/s.les" --from -1
expect_rejected --depth "$CTL" --socket "$WORKDIR/none.sock" \
  ingest-file "$WORKDIR/s.les" --depth 8x

status=0
"${RUN[@]}" --k 4 --window 500 --seed 7 --checkpoint-every 1000 \
  2> "$WORKDIR/ok.log" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: valid loom_partition run exited $status:" >&2
  sed 's/^/    /' "$WORKDIR/ok.log" >&2
  failures=$((failures + 1))
else
  echo "ok:   valid loom_partition run exits 0"
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_flags_check: $failures failure(s)" >&2
  exit 1
fi
echo "cli_flags_check: PASS"
