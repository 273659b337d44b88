#!/usr/bin/env bash
# Non-test Go lines per package: the root package, each internal/* and
# cmd/* package, and the benchmark module. It is the table ROADMAP.md's
# "Where the code is now" quotes, and what a simplification issue counts
# its before/after against (blank and comment lines included: a line is a
# line, so a count cannot be moved by reformatting). internal/spec, the
# executable specification the engine's tests diff it against, is test code
# that happens not to be named _test.go — only _test.go files import it, which
# is checked here — so it is listed but left out of the total.
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

testonly=internal/spec
if grep -rl --include='*.go' --exclude='*_test.go' "\"precis/$testonly\"" . >/dev/null; then
	echo "loc.sh: a non-test file imports $testonly; it is not test-only any more" >&2
	exit 1
fi

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
	if [ "$d" = "$testonly" ]; then
		printf '%-26s %7d  (test-only, not in the total)\n' "$name" "$n"
		continue
	fi
	printf '%-26s %7d\n' "$name" "$n"
	total=$((total + n))
done
printf '%-26s %7d\n' total "$total"
