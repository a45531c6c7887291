#!/usr/bin/env sh
# Prints the production line count refactor PRs quote in CHANGES.md (ROADMAP
# standing constraint): lines of non-test Go outside benchmark/ and any
# testdata/ directory.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
	! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
