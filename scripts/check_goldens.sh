#!/usr/bin/env bash
# Golden run-report check for every registry preset.
#
# Runs each preset the `hotspots` CLI knows about at --quick scale,
# normalizes the JSONL run report (host-timing fields stripped), and
# diffs it against the checked-in golden under results/golden/. Any
# drift in probe accounting, infections, config echo, or population
# totals fails the check. Each preset's wall time (the whole `hotspots
# run`, in seconds) goes to stderr, followed by the total.
#
# Usage:
#   scripts/check_goldens.sh            # compare against goldens
#   scripts/check_goldens.sh --update   # regenerate the goldens
#
# Set HOTSPOTS to point at the CLI binary (default: release build).
set -euo pipefail
cd "$(dirname "$0")/.."

HOTSPOTS=${HOTSPOTS:-target/release/hotspots}
if [ ! -x "$HOTSPOTS" ]; then
    echo "error: $HOTSPOTS not built (cargo build --release -p hotspots-experiments --bin hotspots)" >&2
    exit 1
fi

mode=check
if [ "${1:-}" = "--update" ]; then
    mode=update
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p results/golden

normalize() {
    python3 - "$1" "$2" <<'PY'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
VOLATILE = ("wall_seconds", "peak_step_seconds", "phases")
with open(src) as f, open(dst, "w") as out:
    for line in f:
        if not line.strip():
            continue
        report = json.loads(line)
        for key in VOLATILE:
            report.pop(key, None)
        out.write(json.dumps(report) + "\n")
PY
}

# Milliseconds since the epoch, read through python3 (already needed by
# normalize) because `date +%N` is GNU-only. The times are informational:
# if the clock cannot be read this prints 0 and the check goes on.
now_ms() {
    python3 -c 'import time; print(time.time_ns() // 1000000)' 2>/dev/null || echo 0
}

fail=0
all_start=$(now_ms)
for name in $("$HOTSPOTS" list | awk '/^  / {print $1}'); do
    raw="$tmp/$name.raw"
    start=$(now_ms)
    HOTSPOTS_RUN_REPORT= "$HOTSPOTS" run "$name" --quick --report "$raw" >/dev/null
    ms=$(($(now_ms) - start))
    printf 'time: %-22s %4d.%03d s\n' "$name" $((ms / 1000)) $((ms % 1000)) >&2
    normalize "$raw" "$tmp/$name.jsonl"
    if [ "$mode" = update ]; then
        cp "$tmp/$name.jsonl" "results/golden/$name.jsonl"
        echo "updated results/golden/$name.jsonl"
    elif ! diff -u "results/golden/$name.jsonl" "$tmp/$name.jsonl"; then
        echo "MISMATCH: $name (regenerate with scripts/check_goldens.sh --update if intended)" >&2
        fail=1
    else
        echo "ok: $name"
    fi
done

ms=$(($(now_ms) - all_start))
printf 'time: %-22s %4d.%03d s\n' total $((ms / 1000)) $((ms % 1000)) >&2

exit "$fail"
