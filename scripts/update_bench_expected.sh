#!/bin/sh
# Re-record the pinned stdout of every deterministic figure harness
# (bench/expected/<name>.txt), which the bench_<name> ctests
# byte-compare at --jobs 1 and --jobs 4.
#
# Usage: scripts/update_bench_expected.sh BUILD_DIR
#
# Re-record only together with a CHANGES.md line naming each figure
# whose numbers legitimately moved (docs/TESTING.md).
set -e
if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
BUILD="$1"
EXPECTED="$(dirname "$0")/../bench/expected"

for f in "$EXPECTED"/*.txt; do
    name="$(basename "$f" .txt)"
    bin="$BUILD/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "missing harness $bin (build it first)" >&2
        exit 1
    fi
    "$bin" --jobs 1 > "$f"
done
echo "re-recorded $(ls "$EXPECTED"/*.txt | wc -l) files under bench/expected/;" \
     "review with: git diff --stat bench/expected"
