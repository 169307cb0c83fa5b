#!/bin/sh
# End-to-end CLI session: generate data, rebalance it two ways, diff the
# class counts via the JSON reports.  Everything lands in a temp dir.
# Runs the package from this checkout: python3 -m rebalance with src on
# PYTHONPATH, so nothing needs installing.
set -e

src=$(cd "$(dirname "$0")/../src" && pwd)
PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
rebalance() { python3 -m rebalance "$@"; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

rebalance gen imbc --rows 1000 --seed 7 --out "$work/imbc.csv"

rebalance randunder --in "$work/imbc.csv" --out "$work/under.csv" \
    --target Class --c-perc balance --seed 7 --report "$work/under.json"

rebalance smote --in "$work/imbc.csv" --out "$work/smote.csv" \
    --target Class --c-perc balance --dist heom --k 5 --seed 7 \
    --report "$work/smote.json"

echo "== class counts before/after =="
python3 - "$work/under.json" "$work/smote.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as fh:
        rep = json.load(fh)
    print(rep["command"], rep["class_counts_before"], "->",
          rep["class_counts_after"])
EOF

# same seed, same output: byte-identical reruns
rebalance smote --in "$work/imbc.csv" --out "$work/smote2.csv" \
    --target Class --c-perc balance --dist heom --k 5 --seed 7
cmp "$work/smote.csv" "$work/smote2.csv" && echo "reruns are byte-identical"
