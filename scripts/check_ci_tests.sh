#!/usr/bin/env bash
# CI name guard. Every `go test <pkgs> -run <pattern>` in the CI workflow
# and the verify skill must select something: each `|` alternative of the
# pattern has to match at least one test, benchmark or fuzz target that
# `go test -list` reports for those packages, so moving or renaming a
# suite cannot leave a CI step silently running nothing. Every Test…,
# Benchmark… and Fuzz… name DESIGN.md, README.md and the verify skill
# cite must be one `go test -list` reports, in this module or bench's,
# so the docs cannot keep naming a test that is gone. It also fails if
# a binary links the equivalence harness (desh/internal/chaos and its
# fixture), which only tests may import.
#
# The docs and the code cannot drift apart in five more ways either:
# every `DESIGN §N` / `DESIGN.md §N` citation in the Go files outside
# bench/, CI, the Makefile, README.md, EXPERIMENTS.md and the verify
# skill names a `## N.` heading of DESIGN.md, and a quoted sub-heading
# after it ("Equivalence harness") is a heading inside that section;
# each of DESIGN §8–§15 opens with Invariant / Pinned by / Out of scope,
# and a CI step it is pinned by exists; DESIGN §3 names every package
# of this module; `make fuzz` and CI's fuzz step each run every Fuzz…
# target the module declares; and no document or Go file outside
# bench/ cites a ROADMAP item by number.
#
# Usage: scripts/check_ci_tests.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
declare -A listed

# names prints every test-like function the packages in "$@" declare.
names() {
	local key="$*"
	if [ -z "${listed[$key]+x}" ]; then
		listed[$key]=$(go test -list '.*' "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	fi
	printf '%s\n' "${listed[$key]}"
}

# One "<packages>\t<pattern>" line per `go test ... -run <pattern>`: the
# file folded to one line (comments and headings dropped, continuations
# joined), cut at every `go test`, each piece ending at a backtick or `;`.
invocations=$(perl -0ne '
	s/^\s*#.*$//mg;
	s/\\\n/ /g;
	s/\s+/ /g;
	my @cmds = split /\bgo test\b/;
	shift @cmds;
	for (@cmds) {
		s/[`;].*//;
		next unless /^(.*?) -run[ =](\x27[^\x27]*\x27|\S+)/;
		my ($pre, $pat) = ($1, $2);
		my @pkgs = grep { m{^\./} } split / /, $pre;
		print join(" ", @pkgs), "\t", $pat, "\n" if @pkgs;
	}' .github/workflows/ci.yml .claude/skills/verify/SKILL.md)

while IFS=$'\t' read -r pkgs pattern; do
	[ -z "$pattern" ] && continue
	pattern=${pattern#\'}
	pattern=${pattern%\'}
	[ "$pattern" = '^$' ] && continue
	# shellcheck disable=SC2086
	all=$(names $pkgs)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "${alt%%/*}" <<<"$all"; then
			echo "check_ci_tests: go test $pkgs -run '$pattern': '$alt' selects no test" >&2
			fail=1
		fi
	done
done <<<"$invocations"

docs=(DESIGN.md README.md .claude/skills/verify/SKILL.md)
declared=$({ names ./...; (cd bench && go test -list '.*' ./...); } | grep -E '^(Test|Benchmark|Fuzz)' | sort -u)
for name in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "${docs[@]}" | sort -u); do
	if ! grep -qx -- "$name" <<<"$declared"; then
		where=$(grep -nw -- "$name" "${docs[@]}" | cut -d: -f1,2 | paste -sd' ')
		echo "check_ci_tests: $name is cited ($where) but no package declares it" >&2
		fail=1
	fi
done

# DESIGN.md's headings for the citation check: "N<TAB>## N. …" for
# each section and "N<TAB>### …" for each sub-heading inside it.
headings=$(awk '/^## [0-9]+\./ { n = $2; sub(/\.$/, "", n); print n "\t" $0; next }
	/^###/ && n != "" { print n "\t" $0 }' DESIGN.md)
goFiles=$(find . -name '*.go' -not -path './bench/*' -not -path './.*' | sort)
citing=(.github/workflows/ci.yml Makefile README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
# shellcheck disable=SC2206
citing+=($goFiles)
# One "file<TAB>N<TAB>quoted sub-heading" line per citation, each file
# folded to one line first (comment leaders dropped at line joins) so a
# citation that wraps is still one citation. A list (`DESIGN §8, §9`)
# yields one line per section.
citations=$(perl -0ne '
	s{\n\s*(?://|#)?\s*}{ }g;
	while (/DESIGN(?:\.md)?\s+§\s?(\d+)((?:\s*(?:,|and|–)\s*§\s?\d+)*)(?:,?\s*"([^"]+)")?/g) {
		my ($first, $more, $sub) = ($1, $2, $3 // "");
		print "$ARGV\t$first\t$sub\n";
		print "$ARGV\t$1\t\n" while $more =~ /§\s?(\d+)/g;
	}' "${citing[@]}")
while IFS=$'\t' read -r file sec sub; do
	[ -z "$file" ] && continue
	if ! grep -q "^$sec"$'\t'"## " <<<"$headings"; then
		echo "check_ci_tests: $file cites DESIGN §$sec, which DESIGN.md has no '## $sec.' heading for" >&2
		fail=1
	elif [ -n "$sub" ] && ! grep -qxF "$sec"$'\t'"### $sub" <<<"$headings"; then
		echo "check_ci_tests: $file cites DESIGN §$sec \"$sub\", which is no heading inside DESIGN §$sec" >&2
		fail=1
	fi
done <<<"$citations"

# Each of DESIGN §8–§15 opens with its Invariant, Pinned by and Out of
# scope items, and every CI step a "Pinned by" quotes exists.
steps=$(sed -n 's/^ *- name: //p' .github/workflows/ci.yml)
pins=$(perl -0ne '
	my %sec = map { /^(\d+)\./ ? ($1 => $_) : () } split /^## /m;
	for my $n (8 .. 15) {
		my ($pinned) = ($sec{$n} // "") =~
			/\A[^\n]*\n\n- \*\*Invariant\..*?\n- \*\*Pinned by\.(.*?)\n- \*\*Out of scope\./s
			or do { print "MISSING\t$n\n"; next };
		$pinned =~ s/\s+/ /g;
		print "STEP\t$n\t$1\n" while $pinned =~ /"([^"]+)"/g;
	}' DESIGN.md)
while IFS=$'\t' read -r kind sec step; do
	if [ "$kind" = MISSING ]; then
		echo "check_ci_tests: DESIGN §$sec does not open with Invariant / Pinned by / Out of scope" >&2
		fail=1
	elif [ "$kind" = STEP ] && ! grep -qxF -- "$step" <<<"$steps"; then
		echo "check_ci_tests: DESIGN §$sec is pinned by CI step \"$step\", which CI does not have" >&2
		fail=1
	fi
done <<<"$pins"

# DESIGN §3's inventory names every package of this module (bench/ is
# a module of its own): `internal/x` as written, the root as `desh`.
inventory=$(awk '/^## 3\./ { p = 1; next } /^## / { p = 0 } p' DESIGN.md)
for pkg in $(go list ./...); do
	rel=${pkg#desh/}
	if ! grep -qF -- "\`$rel\`" <<<"$inventory"; then
		echo "check_ci_tests: package $pkg is missing from DESIGN §3's inventory" >&2
		fail=1
	fi
done

# Every declared fuzz target runs under `make fuzz` and in CI's fuzz step.
makeFuzz=$(awk '/^fuzz:/ { p = 1; next } /^[^\t]/ { p = 0 } p' Makefile)
ciFuzz=$(awk '/- name: Fuzz seeds/ { p = 1; next } /- name:/ { p = 0 } p' .github/workflows/ci.yml)
for target in $(names ./... | grep -E '^Fuzz' | sort -u); do
	if ! grep -qE -- "-fuzz $target( |\$)" <<<"$makeFuzz"; then
		echo "check_ci_tests: $target is declared but make fuzz does not fuzz it" >&2
		fail=1
	fi
	if ! grep -qE -- "-fuzz $target( |\$)" <<<"$ciFuzz"; then
		echo "check_ci_tests: $target is declared but CI's Fuzz seeds step does not fuzz it" >&2
		fail=1
	fi
done

# Documents and code say why, not which ROADMAP entry asked for it.
roadmapRefs=$(grep -nE 'ROADMAP item|\bitem [0-9]+\([a-z]\)' DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md $goFiles || true)
if [ -n "$roadmapRefs" ]; then
	printf 'check_ci_tests: ROADMAP item cited by number: %s\n' "$roadmapRefs" >&2
	fail=1
fi

if go list -deps ./cmd/... . | grep -q '^desh/internal/chaos'; then
	echo "check_ci_tests: a binary links desh/internal/chaos; only tests may import the harness" >&2
	fail=1
fi
exit $fail
