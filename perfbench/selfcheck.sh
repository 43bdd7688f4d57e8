#!/usr/bin/env bash
# Acceptance check of the benchmark itself: two full sets of the same commit,
# back to back, must agree within each metric's own bound, with identical
# simulated results and exact counts.  Prints the worst pairing.
# Run from the checkout root; takes about ten minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0}"
out=perfbench/out
mkdir -p "$out"
python3 -m perfbench run --seed "$seed" --out "$out/selfcheck_a.json" > "$out/selfcheck_a.log" 2>&1 \
    || { tail -n 40 "$out/selfcheck_a.log"; echo "selfcheck: first set failed"; exit 1; }
python3 -m perfbench run --seed "$seed" --out "$out/selfcheck_b.json" > "$out/selfcheck_b.log" 2>&1 \
    || { tail -n 40 "$out/selfcheck_b.log"; echo "selfcheck: second set failed"; exit 1; }
python3 -m perfbench compare --strict "$out/selfcheck_a.json" "$out/selfcheck_b.json"
