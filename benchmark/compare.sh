#!/usr/bin/env bash
# compare.sh A.json B.json — per workload × end-to-end metric: the two
# medians, the bound and a verdict (better / within / worse /
# unresolved). Refuses result files whose workers, seed or round
# counts differ. Exit status: 0 no "worse", 1 some "worse", 2 refused.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 A.json B.json" >&2; exit 2; }
exec python3 "$(dirname "$0")/results.py" compare "$1" "$2"
