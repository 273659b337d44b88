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
#   scripts/loc.sh REF      the table of git ref REF → the working tree, per
#                           package and in total (REF is unpacked with git
#                           archive into a temporary directory)
set -euo pipefail
cd "$(dirname "$0")/.."

testonly=internal/spec

count() { # non-test .go lines directly in directory $1
	local files
	files=$(find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -z "$files" ] && { echo 0; return; }
	cat $files | wc -l
}

lines() { # "DIR LINES" for each package directory $2... (default: all) of the tree at $1
	local root=$1 d n
	shift
	cd "$root"
	[ $# -eq 0 ] && set -- . internal/* cmd/* benchmark
	for d in "$@"; do
		[ -d "$d" ] || continue
		n=$(count "$d")
		[ "$n" -eq 0 ] || echo "$d $n"
	done
}

if grep -rl --include='*.go' --exclude='*_test.go' "\"precis/$testonly\"" . >/dev/null; then
	echo "loc.sh: a non-test file imports $testonly; it is not test-only any more" >&2
	exit 1
fi

if [ $# -eq 1 ] && [ ! -d "$1" ] && git rev-parse -q --verify "$1^{commit}" >/dev/null; then
	ref=$1
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$ref" | tar -x -C "$tmp"
	# Packages in REF's order, then those only the working tree has.
	awk -v spec="$testonly" -v ref="$ref" '
		{ if (!($1 in seen)) { seen[$1]; order[++n] = $1 } }
		NR == FNR { parent[$1] = $2; next }
		{ change[$1] = $2 }
		END {
			printf "%-26s %7s %7s %7s\n", "package", substr(ref, 1, 7), "change", "delta"
			for (i = 1; i <= n; i++) {
				d = order[i]; p = parent[d] + 0; c = change[d] + 0
				note = ""
				if (d == spec) note = "  (test-only, not in the total)"
				else { pt += p; ct += c }
				printf "%-26s %7d %7d %+7d%s\n", d == "." ? "(root)" : d, p, c, c - p, note
			}
			printf "%-26s %7d %7d %+7d\n", "total", pt, ct, ct - pt
		}' <(lines "$tmp") <(lines .)
	exit 0
fi

total=0
printf '%-26s %7s\n' package lines
while read -r d n; do
	name=$d
	[ "$d" = . ] && name='(root)'
	if [ "$d" = "$testonly" ]; then
		printf '%-26s %7d  (test-only, not in the total)\n' "$name" "$n"
		continue
	fi
	printf '%-26s %7d\n' "$name" "$n"
	total=$((total + n))
done < <(lines . "$@")
printf '%-26s %7d\n' total "$total"
