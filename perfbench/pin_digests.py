"""Write ``digests.json``: the SHA-256 of every output of one cycle per
worker of every workload, for seed 0.

    python3 perfbench/pin_digests.py

Run it only on a commit whose outputs are the reference; ``run.py`` then
counts any differing output at seed 0 as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    pinned = {}
    for name, wl in workloads.WORKLOADS.items():
        if name == "cli-cold":
            records = run.cli_ops(0, wl.cap_s, cycles=1)[0]
        else:
            records = []
            for j in range(wl.workers):
                records += run.spawn_worker(wl, 0, j, wl.cap_s, cycles=1)["ops"]
        bad = [r for r in records if r["status"] not in ("ok", "capped")]
        if bad:
            print(f"{name}: not pinned, failed operations: {bad}", file=sys.stderr)
            return 1
        pinned[name] = {r["key"]: r["digest"] for r in records if r["status"] == "ok"}
        print(f"{name}: {len(pinned[name])} digests")
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
