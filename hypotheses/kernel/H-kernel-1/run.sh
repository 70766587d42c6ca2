#!/bin/sh
# H-kernel-1: does the patched (FSGSBASE) kernel personality at least
# halve modelled MANA overhead on the call-heavy library specs?
#
# Usage, from anywhere in the repository:
#   sh hypotheses/kernel/H-kernel-1/run.sh
#
# It builds manasim once and runs each library spec twice, with
# -kernel unpatched and -kernel patched; nothing else differs between
# the two runs of a spec. Runs are deterministic, so one run per cell
# suffices. For each spec it prints, from the report's rank table, the
# MPI calls per millisecond of rank virtual time in the unpatched run
# (what ranks the specs by call density), each run's total
# mana-overhead, and the patched/unpatched overhead ratio.
set -eu
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/manasim" ./cmd/manasim)

RANKS=64 STEPS=50 SEED=42
specs="bursty-alltoall default master-worker overlap pipeline stencil"

# totals reads a report's rank table and prints the summed MPI calls,
# rank virtual time (ns) and mana-overhead (ns).
totals() {
	awk '
	function ns(d,  v) {
		v = d + 0
		if (d ~ /µs$/) return v * 1e3
		if (d ~ /ms$/) return v * 1e6
		if (d ~ /ns$/) return v
		if (d ~ /s$/) return v * 1e9
		return v
	}
	/^ranks:/ { in_table = 1; next }
	in_table && /^ *rank / { next }
	in_table && NF == 0 { in_table = 0 }
	in_table && NF == 8 { calls += $3; vt += ns($2); over += ns($7) }
	END { printf "%d %.0f %.0f\n", calls, vt, over }
	' "$1"
}

printf '%-16s %14s %18s %18s %8s\n' spec calls/ms unpatched-ns patched-ns ratio
for spec in $specs; do
	for kernel in unpatched patched; do
		"$tmp/manasim" -spec "$spec" -ranks $RANKS -steps $STEPS -seed $SEED -no-fail \
			-kernel $kernel > "$tmp/$spec.$kernel.txt"
	done
	set -- $(totals "$tmp/$spec.unpatched.txt")
	calls=$1 vt=$2 base=$3
	set -- $(totals "$tmp/$spec.patched.txt")
	if [ "$1" != "$calls" ]; then
		echo "run.sh: $spec: the two kernels' runs make different numbers of MPI calls" >&2
		exit 1
	fi
	awk -v s="$spec" -v c="$calls" -v vt="$vt" -v b="$base" -v p="$3" \
		'BEGIN { printf "%-16s %14.1f %18d %18d %8.3f\n", s, c / (vt / 1e6), b, p, p / b }'
done
