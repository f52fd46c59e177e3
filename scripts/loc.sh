#!/bin/sh
# Non-test Go lines per package (physical lines of every *.go file that is
# not *_test.go), with a total — the number simplicity PRs are held to.
# With arguments, counts only the named package directories:
#
#   scripts/loc.sh internal/server internal/journal cmd/tacoserve cmd/tacoload
set -eu

cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- $(find cmd internal examples -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u) .
fi
total=0
for dir in "$@"; do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
