#!/usr/bin/env bash
# go test -run PATTERN over the named packages, refusing a pattern that
# selects nothing. `go test -run P` exits 0 when P matches no test, so a
# deleted or renamed test can silently empty a CI step; this script first
# lists PATTERN's matches in each package (go test -list) and fails if any
# package lists none.
#
# Usage: scripts/gotest-must-match.sh PATTERN PKG... [GO-TEST-FLAGS...]
#   e.g. scripts/gotest-must-match.sh 'Corrupt|PublisherAgainstModel' ./internal/serve -race -v
# Packages are the arguments up to the first one that starts with "-"; the
# rest are passed to go test as they are.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 PATTERN PKG... [GO-TEST-FLAGS...]" >&2
	exit 2
fi
pattern=$1
shift
pkgs=()
while [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; do
	pkgs+=("$1")
	shift
done
if [ ${#pkgs[@]} -eq 0 ]; then
	echo "$0: no package named" >&2
	exit 2
fi

for pkg in "${pkgs[@]}"; do
	if ! listed=$(go test -list "$pattern" "$pkg"); then
		echo "$listed" >&2
		exit 1
	fi
	if ! grep -Eq '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
		echo "FAIL: -run '$pattern' selects no test in $pkg" >&2
		exit 1
	fi
done
exec go test "$@" -run "$pattern" "${pkgs[@]}"
