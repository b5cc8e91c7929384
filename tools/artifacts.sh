#!/usr/bin/env bash
# Write every bundled CLI artifact set under <out>, one directory per run:
#
#   price-pde         on the four single-maturity configs
#   price-analytic    on both constant-vol configs
#   solve-pde         on corrective_terms_rho_pos and hyperbolic_hw_rho_neg
#   corrective-terms  on the maturity fan (corrective_terms_rho_pos)
#   calibrate         on the round trip (calibration_roundtrip)
#   price-mc          on bshw_rho_pos
#
# Usage: tools/artifacts.sh <out>
#
# The runs import the package from the src/ of the checkout holding this
# script. Each run's output directory is part of its resolved config, and so
# of every "# config=" digest: to compare two runs byte for byte, give both
# the same <out> and move the first one away before the second, e.g.
#
#   tools/artifacts.sh art && mv art art-first
#   tools/artifacts.sh art && diff -r art-first art
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <out>" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

run() {  # <command> <config>
    python -m hybridlv "$1" --config "$root/configs/$2.yaml" --out "$out/$1/$2" > /dev/null
}

for config in bshw_rho_pos bshw_rho_neg_2y hyperbolic_hw_rho_pos hyperbolic_hw_rho_neg; do
    run price-pde "$config"
done
for config in bshw_rho_pos bshw_rho_neg_2y; do
    run price-analytic "$config"
done
for config in corrective_terms_rho_pos hyperbolic_hw_rho_neg; do
    run solve-pde "$config"
done
run corrective-terms corrective_terms_rho_pos
run calibrate calibration_roundtrip
run price-mc bshw_rho_pos
