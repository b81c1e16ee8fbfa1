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

if go list -deps ./cmd/... . | grep -q '^desh/internal/chaos'; then
	echo "check_ci_tests: a binary links desh/internal/chaos; only tests may import the harness" >&2
	fail=1
fi
exit $fail
