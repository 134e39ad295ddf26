#!/usr/bin/env bash
# Runs one full set of the benchmark, as the driver does: every workload
# under ten seeds with tracing off, plus one counted + traced pass per
# workload, appended to the file named by $1. Two sets of one commit,
# compared with `bash bench/run.sh -compare a.jsonl b.jsonl`, are the A/A
# check; a set of the parent commit against a set of a change is the A/B.
#
#   bash bench/set.sh a.jsonl [first-seed] [seconds]
set -euo pipefail
out="${1:?usage: set.sh out.jsonl [first-seed] [seconds]}"
first="${2:-1}"
seconds="${3:-15}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in serve-a-sync serve-a-pipe serve-e-scan lib-hash-a; do
	for ((s = first; s < first + 10; s++)); do
		bash "$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 -out "$out" | tail -n 1
	done
	bash "$here/run.sh" --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 -out "$out" | tail -n 1 | cut -c1-200
done
