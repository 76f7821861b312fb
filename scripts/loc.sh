#!/usr/bin/env bash
# Non-test source lines per package and in total: every tracked *.go and
# *.s file that is not a *_test.go file and not under a testdata/
# directory, counted with wc -l (comments and blank lines included). This
# is the figure the simplicity ISSUEs set their line targets in; run it on
# the parent commit and on the change instead of counting by hand. (PR 18
# and earlier quoted a total that counted the analyzer fixtures under
# internal/analysis/testdata and left out the assembly.)
#
# Usage: scripts/loc.sh   (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

git ls-files -z -- '*.go' '*.s' |
	grep -zv -e '_test\.go$' -e '\(^\|/\)testdata/' |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2
		if (!sub("/[^/]*$", "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d
		printf "%7d  total\n", total
	}' |
	sort -k2
