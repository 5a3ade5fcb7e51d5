#!/bin/sh
# make mutate: prove that each invariant's one mechanism still catches what
# it is there to catch.
#
# Every NN-name.patch in this directory seeds one violation and names, on its
# "# expect-fail: <command>" line, the check that holds the invariant. The
# driver copies the working tree to a temporary directory, applies one patch
# at a time with `git apply`, requires the mutant to build and vet (so it
# dies of the seeded defect, not of a typo) and the named command to exit
# non-zero, and reverses the patch. A mutant that survives is a missing
# check; a patch that no longer applies has rotted and must be regenerated.
# Nothing is left behind. DESIGN.md, "Invariants held by a test, not a rule",
# is the prose twin of this directory.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/tree"
(cd "$root" && tar --exclude=./.git -cf - .) | (cd "$tmp/tree" && tar -xf -)
cd "$tmp/tree"

survivors=0
for patch in "$root"/tools/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	cmd=$(sed -n 's/^# expect-fail: //p' "$patch" | head -n 1)
	if [ -z "$cmd" ]; then
		echo "mutate: $name: no '# expect-fail: <command>' line" >&2
		exit 2
	fi
	if ! git apply "$patch"; then
		echo "mutate: $name: patch no longer applies to the tree; regenerate it" >&2
		exit 2
	fi
	pkgs=$(git apply --numstat "$patch" | cut -f3 | xargs -n1 dirname | sort -u | sed 's|^|./|')
	if ! { go build ./... && go vet $pkgs; } >"$tmp/log" 2>&1; then
		echo "mutate: $name: the mutant does not build and vet, so it proves nothing:" >&2
		cat "$tmp/log" >&2
		exit 2
	fi
	if sh -c "$cmd" >"$tmp/log" 2>&1; then
		echo "SURVIVED  $name  ($cmd passed)"
		survivors=$((survivors + 1))
	else
		echo "killed    $name  ($cmd)"
	fi
	git apply -R "$patch"
done

if [ "$survivors" -gt 0 ]; then
	echo "mutate: $survivors mutant(s) survived: each is an invariant nothing checks" >&2
	exit 1
fi
echo "mutate: every mutant was killed"
