#!/usr/bin/env bash
# Linker census. Non-test code under internal/ earns its place by being
# linked into a shipped binary: the six cmd/ tools, the four examples and
# the benchmark's deshbench. This builds all eleven with inlining off
# (-gcflags=all=-l, so a function the compiler would inline still shows
# up as a symbol where it is called), reads every internal/ package's
# defined functions from its export archive (go list -export + go tool
# nm), and fails on each function no binary links unless
# scripts/census_allow.txt names it. A symbol counts as a function only
# if the package source declares it: the pointer wrappers of value
# methods fold onto the method, and compiler-made wrappers (promoted
# methods of embedded fields, interface method values, closures) are not
# counted. An allowlist entry no longer needed fails the census too.
#
# Usage: scripts/census.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/deshbench" .)

# fnames reads `go tool nm` output on stdin and prints the desh/internal
# function symbols it defines, one name each, without the module prefix,
# with (*T).M folded onto T.M and generic instantiations onto their
# generic name.
fnames() {
	sed 's/^[^\t]*\t//' |
		awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
		grep '^desh/internal/' |
		sed -E 's/^desh\///; s/\.abi0$//; s/\[.*\]//; s/\(\*([A-Za-z0-9_]+)\)\./\1./' |
		grep -Ev '\.(func|gowrap|deferwrap)[0-9]|\.init(\.[0-9]+)?$' || true
}

for b in "$tmp"/bin/*; do
	go tool nm "$b" | fnames
done | sort -u >"$tmp/linked"

go list -export -f '{{.Export}}' ./internal/... | while read -r archive; do
	go tool nm "$archive" | fnames
done | sort -u >"$tmp/defined"

# declared succeeds if pkg's non-test source declares sym (F or T.M).
declared() {
	local pkg=$1 sym=$2 re
	case "$sym" in
	*.*.*) return 1 ;; # a promoted method of an embedded field
	*.*) re="^func \(([A-Za-z0-9_]+ )?\*?${sym%%.*}(\[[^]]*\])?\) ${sym#*.}[[(]" ;;
	*) re="^func ${sym}[[(]|^TEXT ·${sym}\(SB\)" ;;
	esac
	find "$pkg" -maxdepth 1 \( -name '*.go' -o -name '*.s' \) -not -name '*_test.go' -print0 |
		xargs -0 grep -qE -- "$re"
}

allow=()
while IFS= read -r line; do
	case "$line" in '' | '#'*) continue ;; esac
	entry=${line%%[[:space:]]*}
	reason=${line#"$entry"}
	if [ -z "${reason//[[:space:]]/}" ]; then
		echo "census: allowlist entry $entry has no reason" >&2
		exit 1
	fi
	allow+=("$entry")
done <scripts/census_allow.txt

# allowed prints the allowlist entry covering sym: the entry itself, or a
# package prefix of it.
allowed() {
	local e
	for e in "${allow[@]}"; do
		case "$1" in "$e" | "$e".* | "$e"/*)
			echo "$e"
			return 0
			;;
		esac
	done
	return 1
}

fail=0
declare -A used
while IFS= read -r sym; do
	pkg=${sym%%.*} # import paths under internal/ carry no dots
	name=${sym#*.}
	declared "$pkg" "$name" || continue
	if e=$(allowed "$sym"); then
		used[$e]=1
		continue
	fi
	echo "census: no binary links $sym" >&2
	fail=1
done < <(comm -23 "$tmp/defined" "$tmp/linked")

for e in "${allow[@]}"; do
	if [ -z "${used[$e]+x}" ]; then
		echo "census: allowlist entry $e covers no unlinked function; drop it" >&2
		fail=1
	fi
done
exit $fail
