"""Re-pin ``digests.json``: sha256 of every op's output at the default seed.

    python3 bench/pin_digests.py

Runs one cycle of every workload in this process and overwrites the
file.  Outputs are meant to stay byte-identical across refactors, so
re-pin only for a change that is meant to alter them, and say so.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from child import run_cycle, set_up
from checks import DIGESTS
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent


def main() -> None:
    pinned = {}
    (BENCH / "_work").mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=BENCH / "_work"))
        try:
            set_up(wl, workdir, DEFAULT_SEED)
            records = run_cycle(wl, workdir, DEFAULT_SEED, 0, traced=False)
        finally:
            shutil.rmtree(workdir)
        bad = [r for r in records if r["rc"] != 0]
        if bad:
            raise SystemExit(f"{name}: ops failed: {bad}")
        pinned[name] = {op.label: r["digest"] for op, r in zip(wl.ops, records)}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
