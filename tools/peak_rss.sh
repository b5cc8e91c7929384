#!/usr/bin/env bash
# Compare the peak resident set of one `hybridlv <command>` run on one config
# between revision <rev> and this checkout:
#
#   1. unpack `git archive <rev>` into <dir>/parent;
#   2. run the command <pairs> times (default 10) from each tree, every run a
#      fresh process, into <dir>/out: odd pairs run the parent first, even
#      pairs the checkout;
#   3. print each run's peak resident set (the child's ru_maxrss, in MB) and
#      the median of each side.
#
# <command> and <config> default to `calibrate` on the round trip
# (calibration_roundtrip); `10 corrective-terms corrective_terms_rho_pos`,
# for one, measures the march of the maturity fan instead. <config> is the
# name of a bundled config (this checkout's configs/<config>.yaml) or the
# path of a YAML config file, such as a copy of a bundled one with more
# maturities; both trees run the same file. A config that is neither is
# refused. <dir> must lie outside the checkout, and none of parent and out
# may exist in it yet. Nothing is written inside the checkout.
#
# Usage: tools/peak_rss.sh <rev> <dir> [pairs] [command] [config]
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <rev> <dir> [pairs] [command] [config]" >&2
    exit 2
fi
rev=$1
pairs=${3:-10}
command=${4:-calibrate}
config=${5:-calibration_roundtrip}
root=$(realpath "$(dirname "$0")/..")
dir=$(realpath -m "$2")

case "$pairs" in
    '' | *[!0-9]* | 0) echo "$0: [pairs] must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
if [ -f "$root/configs/$config.yaml" ]; then
    config=$root/configs/$config.yaml
elif [ -f "$config" ]; then
    config=$(realpath "$config")
else
    echo "$0: no config $root/configs/$config.yaml, nor a file $config" >&2
    exit 2
fi
source "$root/tools/parent_tree.sh"
unpack_parent "$rev" src/hybridlv/cli.py out

peak() {  # <tree>: run the command from <tree> and print its peak resident set in MB
    python - "$1/src" "$command" "$config" "$dir/out" <<'EOF'
import os, resource, subprocess, sys
src, command, config, out = sys.argv[1:]
env = dict(os.environ, PYTHONPATH=src)
subprocess.run([sys.executable, "-m", "hybridlv", command, "--config", config, "--out", out],
               env=env, check=True, stdout=subprocess.DEVNULL)
print(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.2f}")
EOF
}

parent=()
checkout=()
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        parent+=("$(peak "$dir/parent")")
        checkout+=("$(peak "$root")")
    else
        checkout+=("$(peak "$root")")
        parent+=("$(peak "$dir/parent")")
    fi
    echo "pair $i: parent ${parent[-1]} MB, checkout ${checkout[-1]} MB"
done
python - "${parent[*]}" "${checkout[*]}" <<'EOF'
import statistics, sys
parent, checkout = ([float(x) for x in side.split()] for side in sys.argv[1:])
lower = sum(c < p for p, c in zip(parent, checkout))
print(f"median: parent {statistics.median(parent):.2f} MB, checkout {statistics.median(checkout):.2f} MB; "
      f"checkout lower in {lower}/{len(parent)} pairs")
EOF
