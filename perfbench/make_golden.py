"""Rewrite golden.json from the canary instances of the current sources.

    python3 perfbench/make_golden.py

The canary of every workload is run once through the command line, at
each size in the workload's ``golden_sizes``, and must pass its oracle; its
digest becomes the stored reference the benchmark compares against.  Run
this only when a change is meant to alter the outputs, and say so where the
change is described.
"""

import json
import shutil
import sys

import run


def main():
    cli, _ = run.import_freepd()
    import numpy as np

    import workloads

    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        for size in cls.golden_sizes:
            wl = cls(size == "quick")
            directory = run.WORK / f"golden-{name}-{size}"
            shutil.rmtree(directory, ignore_errors=True)
            canary = wl.generate(np.random.default_rng(run.CANARY_SEED),
                                 workloads.prepare(directory), -1)
            _, _, codes = run.run_round(cli, canary, run.library_caches())
            rejected = run.check_round(wl, canary, codes)
            if any(codes) or rejected:
                sys.exit(f"{name}/{size}: exit codes {codes}, oracle {rejected}")
            golden[f"{name}/{size}"] = wl.digest(canary)
            shutil.rmtree(directory)
            print(f"{name}/{size}: reference taken", flush=True)
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
