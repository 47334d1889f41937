#!/usr/bin/env bash
# unreached.sh lists every non-test function of the repository that no
# program built from it reaches, and fails when one is not kept on
# purpose in DESIGN.md §6.1, or when §6.1 keeps a function that is gone
# or that a root now reaches.
#
# The reachability is the linker's own. Every root (cmd/*, examples/*
# and the bench module) is built with -ldflags=-dumpdep, which prints
# each edge of the linker's dead-code pass, and with -gcflags=all=-l,
# without which an inlined callee drops out of that graph. Calls through
# an interface, a function value or a method value (-fm) are edges there
# too, so a function reached only that way is not reported. A
# declaration is reached when its symbol, or a closure, wrapper or
# stack object of it, is in the union of the roots' graphs.
#
#   bash scripts/unreached.sh    # exit 0: nothing unlisted; 1: the list
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# reached DIR MAIN appends the symbols of the root in DIR to
# $work/reached, written as the declarations below are keyed: module
# path and receiver pointer dropped, generic shapes removed, main.X
# renamed MAIN.X. Shapes hold spaces, so edges split on " -> ". A
# function's argument funcdata (F.arginfo1, F.argliveinfo) is not a
# call of F: the linker shares such symbols by content, so another
# function with the same argument layout may carry F's.
reached() {
	local dir=$1 main=$2
	if ! (cd "$dir" && go build -o "$work/bin" -gcflags=all=-l -ldflags=-dumpdep .) 2>"$work/dep"; then
		cat "$work/dep" >&2
		exit 2
	fi
	awk -F ' -> ' -v main="$main" '
	{
		for (i = 1; i <= NF; i++) {
			s = $i
			if (s ~ /^main\./) s = main substr(s, 5)
			else if (s ~ /^repro\//) s = substr(s, 7)
			else continue
			if (s ~ /\.(arginfo[0-9]+|argliveinfo)$/) continue
			while (gsub(/\[[^][]*\]/, "", s)) {}
			gsub(/\(\*|\)/, "", s)
			print s
		}
	}' "$work/dep" >>"$work/reached"
}

for d in cmd/* examples/*; do
	reached "$d" "$d"
done
reached bench bench

# Every non-test func declaration, as "file:line key", the key being
# dir.Name or dir.Recv.Name (gofmt starts each at column 0).
git ls-files '*.go' | grep -v -e '_test\.go$' -e '/testdata/' | xargs awk '
/^func / {
	s = substr($0, 6)
	dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
	recv = ""
	if (s ~ /^\(/) {
		r = substr(s, 2, index(s, ")") - 2)
		s = substr(s, index(s, ")") + 2)
		gsub(/\[[^]]*\]/, "", r)
		n = split(r, f, " ")
		recv = f[n]; sub(/^\*/, "", recv)
		recv = recv "."
	}
	match(s, /^[A-Za-z0-9_]+/)
	name = substr(s, 1, RLENGTH)
	if (recv == "" && (name == "init" || name == "main")) next
	print FILENAME ":" FNR " " dir "." recv name
}' >"$work/decls"

# DESIGN.md §6.1 keeps a function with a list item that opens with its
# backquoted key.
awk '/^### 6\.1 / { on = 1; next } /^#/ { on = 0 }
on && /^- `[^`]*`/ { k = $0; sub(/^- `/, "", k); sub(/`.*/, "", k); print k }' DESIGN.md >"$work/kept"

# A declaration is reached when its key, or its key with a .suffix or
# -suffix (.func1, .stkobj, -fm), is a reached symbol.
awk -v kept="$work/kept" '
BEGIN { while ((getline k < kept) > 0) keep[k] = 1 }
FILENAME != ARGV[ARGC - 1] {
	k = $0; seen[k] = 1
	while (match(k, /[.-][^.\/-]*$/)) { k = substr(k, 1, RSTART - 1); seen[k] = 1 }
	next
}
{ declared[$2] = 1 }
$2 in seen { if ($2 in keep) print "kept but reached: " $2; next }
!($2 in keep)
END { for (k in keep) if (!(k in declared)) print "kept but not declared: " k }
' "$work/reached" "$work/decls" >"$work/report"

if [ -s "$work/report" ]; then
	echo "unreached: each line needs a root that reaches it, deletion, or a DESIGN.md §6.1 entry:"
	sort "$work/report"
	exit 1
fi
echo "unreached: ok ($(wc -l <"$work/kept") kept on purpose in DESIGN.md §6.1)"
