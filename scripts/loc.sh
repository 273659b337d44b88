#!/usr/bin/env bash
# Non-test Go lines per package: the root package, each internal/* and
# cmd/* package, and the benchmark module. It is the table ROADMAP.md's
# "Where the code is now" quotes, and what a simplification issue counts
# its before/after against (blank and comment lines included: a line is a
# line, so a count cannot be moved by reformatting).
#
#   scripts/loc.sh          the table
#   scripts/loc.sh DIR...   only these package directories
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-test .go lines directly in directory $1
	local files
	files=$(find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -z "$files" ] && { echo 0; return; }
	cat $files | wc -l
}

dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
	dirs=(. internal/* cmd/* benchmark)
fi
total=0
printf '%-26s %7s\n' package lines
for d in "${dirs[@]}"; do
	[ -d "$d" ] || continue
	n=$(count "$d")
	[ "$n" -eq 0 ] && continue
	name=$d
	[ "$d" = . ] && name='(root)'
	printf '%-26s %7d\n' "$name" "$n"
	total=$((total + n))
done
printf '%-26s %7d\n' total "$total"
