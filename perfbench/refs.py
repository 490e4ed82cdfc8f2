"""Regenerate the references the benchmark checks outputs against.

Usage (from the repository root)::

    python3 perfbench/refs.py [--workload NAME ...]

Runs the program over each workload's whole item pool and writes
``perfbench/refs/<name>.json``: the sha256 of each file's JSON lint
report (lint), the oracle verdict with its per-target static
codes and dynamic outcomes (diffgen), and the group energies, virtual
makespan and finish-time digest of every WL-LSMS variant (wllsms).
Regenerate them only when a change is meant to alter the program's
output; a change that claims only speed must leave them untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFS_DIR, WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        # Pool digests lint without a cache, so nothing is written.
        workload = WORKLOADS[name](HERE.parent / ".perfbench_tmp", refs={})
        table = workload.pool_digests()
        if name == "wllsms":
            for key, value in table.items():
                original = table[key.split("/")[0] + "/original"]
                if value["energies"] != original["energies"]:
                    raise SystemExit(f"{key}: energies differ from original")
        REFS_DIR.mkdir(exist_ok=True)
        with open(REFS_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
