#!/bin/sh
# H-compress-1: do compression savings come from the content the ranks
# write?
#
# Usage, from anywhere in the repository:
#   sh hypotheses/compress/H-compress-1/run.sh
#
# It builds manasim once and runs each library spec with incremental
# images under two storage documents that differ in one thing: the
# built-in staged-compressed profile, and that profile written out as a
# JSON document with every region class at compressibility 1.0 (nothing
# compresses by its class). Runs are deterministic, so one run per cell
# suffices. For each spec it prints the bytes the compressor saved over
# all checkpoints under each document. It exits 1 when a precondition
# fails: the written-out document without its compressibility map must
# print the profile's report, and the profile's run of the decisive spec
# must save bytes.
set -eu
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/manasim" ./cmd/manasim)

RANKS=64 STEPS=30 SEED=42
decisive=stencil
specs="bursty-alltoall default master-worker overlap pipeline stencil"
run() { "$tmp/manasim" -spec "$1" -ranks $RANKS -steps $STEPS -seed $SEED -incremental -no-fail -storage "$2"; }

# The region classes, as manasim names them when it refuses an unknown one.
printf '{"compression": {"enabled": true}, "compressibility": {"?": 1}}\n' > "$tmp/probe.json"
classes=$("$tmp/manasim" -storage "$tmp/probe.json" 2>&1 | sed -n 's/.*want one of \(.*\))$/\1/p' | tr -d ,)
if [ -z "$classes" ]; then
	echo "run.sh: could not read the region classes from manasim" >&2
	exit 1
fi

# The staged-compressed profile written out (internal/storage: profiles),
# once as it is and once with every class at ratio 1.0.
profile='"pfs": {"aggregate_bandwidth": 16e9},
  "burst_buffer": {"bandwidth": 8e9, "capacity": 268435456},
  "compression": {"enabled": true, "cost_ns_per_byte": 0.3}'
printf '{\n  %s\n}\n' "$profile" > "$tmp/profile.json"
ratios=$(for k in $classes; do printf '"%s": 1.0, ' "$k"; done | sed 's/, $//')
printf '{\n  %s,\n  "compressibility": {%s}\n}\n' "$profile" "$ratios" > "$tmp/ratio1.json"

# saved sums the bytes the compressor saved over a report's checkpoints.
saved() { sed -n 's/.*(saved \([0-9]*\),.*/\1/p' "$1" | awk '{ s += $1 } END { print s + 0 }'; }

printf '%-16s %14s %14s\n' spec profile-saved ratio1-saved
for spec in $specs; do
	run "$spec" staged-compressed > "$tmp/$spec.profile.txt"
	run "$spec" "$tmp/profile.json" > "$tmp/$spec.written.txt"
	if ! cmp -s "$tmp/$spec.profile.txt" "$tmp/$spec.written.txt"; then
		echo "run.sh: $spec: the written-out profile prints a different report from -storage staged-compressed" >&2
		exit 1
	fi
	run "$spec" "$tmp/ratio1.json" > "$tmp/$spec.ratio1.txt"
	printf '%-16s %14d %14d\n' "$spec" "$(saved "$tmp/$spec.profile.txt")" "$(saved "$tmp/$spec.ratio1.txt")"
done
if [ "$(saved "$tmp/$decisive.profile.txt")" -eq 0 ]; then
	echo "run.sh: precondition failed: $decisive saves no bytes under the staged-compressed profile" >&2
	exit 1
fi
