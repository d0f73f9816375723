"""Freeze the SHA-256 of the byte-contract outputs into ``golden.json``.

Runs, at full size and the default seed, every command whose output must
never change byte for byte (it does not depend on the convolution
kernel): fig6, fig7, both stage-survival grids, simulate, theorem1 and
fit.  Run it only to re-freeze after an intended output change:

    python3 perfbench/make_golden.py
"""

import json
import os
import shutil
import sys

import inputs
import run

#: Commands without a seed (all of hazard-grid): hashed at every seed.
#: mc-trace's commands are hashed at the default seed only.
UNSEEDED = ("fig6", "fig7", "stage-survival-weibull", "stage-survival-uniform")


def main() -> int:
    golden = {"seed": inputs.DEFAULT_SEED, "unseeded": {}, "seeded": {}}
    for workload in ("hazard-grid", "mc-trace"):
        r = run.prepare(workload, inputs.DEFAULT_SEED, inputs.FULL)
        try:
            for i, cmd in enumerate(r.commands):
                att = run.run_child(cmd, r.workdir, f"g{i}")
                if att.exit_code != 0:
                    raise SystemExit(f"{cmd.name}: {att.failure}")
                group = "unseeded" if cmd.name in UNSEEDED else "seeded"
                golden[group][cmd.name] = att.digest
                run.discard(att)
        finally:
            shutil.rmtree(r.workdir, ignore_errors=True)
    path = os.path.join(run.HERE, "golden.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
