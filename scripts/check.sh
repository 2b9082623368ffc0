#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Runs the gofmt gate, the tier-1 build+test pass (what CI and the
# roadmap call "tier-1 green"), vet, and the race-detector pass that
# guards the internal/parallel worker-pool layer and the collect
# hot-swap/counter paths. It also prints the non-test Go LOC the
# roadmap tracks (informational, never a gate). Usage:
#
#   scripts/check.sh          # everything
#   scripts/check.sh -short   # pass flags through to both test runs
#
# Ordering: gofmt first (cheapest, catches the most common CI failure),
# then build before vet so compile errors surface as compile errors
# rather than vet noise, then the two test passes.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Every *.go except *_test.go, outside the separate perfbench/ module
# and hidden directories (build caches).
loc=$(find . \( -path ./perfbench -o -path './.*' \) -prune -o \
    -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l | tr -d ' ')
echo "== non-test Go LOC (excluding perfbench/): $loc"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./... $*"
go test "$@" ./...

echo "== go test -race ./... $*"
go test -race "$@" ./...

echo "check.sh: all green"
