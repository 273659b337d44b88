#!/usr/bin/env bash
# Test-time ledger: seconds per package and the ten slowest tests, read from
# the event stream of `go test -json`. It is the table a PR that makes the
# suite slower or faster quotes its before/after from, printed beside
# scripts/loc.sh; a report, not a gate (a failing test is marked, not fatal).
#
#   scripts/testtime.sh            runs go test -count=1 -json ./... and reports
#   scripts/testtime.sh FILE       reports on a saved go test -json stream
set -euo pipefail
cd "$(dirname "$0")/.."

rows=$(mktemp)
src=${1:-}
if [ -z "$src" ]; then
	src=$(mktemp)
	trap 'rm -f "$src" "$rows"' EXIT
	go test -count=1 -json ./... >"$src" || true
else
	trap 'rm -f "$rows"' EXIT
fi

# The pass/fail events carry Elapsed; a package's own event has no Test field.
# go test -json writes the fields in a fixed order, so a match per field is
# enough to read them.
awk '
function field(name,   m) {
	if (match($0, "\"" name "\":\"[^\"]*\"")) {
		m = substr($0, RSTART, RLENGTH)
		sub("^\"" name "\":\"", "", m)
		sub("\"$", "", m)
		return m
	}
	return ""
}
/"Action":"(pass|fail)"/ && /"Elapsed":/ {
	match($0, /"Elapsed":[0-9.]+/)
	secs = substr($0, RSTART + 10, RLENGTH - 10)
	pkg = field("Package")
	test = field("Test")
	mark = ($0 ~ /"Action":"fail"/) ? "  FAIL" : ""
	if (test == "") {
		printf "pkg %10.2f %s%s\n", secs, pkg, mark
	} else if (test !~ /\//) {
		printf "test %10.2f %s %s%s\n", secs, pkg, test, mark
	}
}' "$src" >"$rows"

printf '%-34s %9s\n' package seconds
grep '^pkg ' "$rows" | sort -k2,2nr | awk '{ printf "%-34s %9.2f%s\n", $3, $2, ($4 == "" ? "" : "  " $4); total += $2 }
	END { printf "%-34s %9.2f\n", "total (sum)", total }'
echo
printf '%-58s %9s\n' 'ten slowest tests' seconds
# awk keeps the first ten itself: a head that exits early would leave sort a
# closed pipe, which pipefail reports as the script's failure (exit 141).
grep '^test ' "$rows" | sort -k2,2nr | awk 'NR <= 10 { printf "%-58s %9.2f%s\n", $3 " " $4, $2, ($5 == "" ? "" : "  " $5) }'
