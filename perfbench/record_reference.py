"""Record the reference test scores ``run.py`` checks every sweep against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py [--seeds 24] [--workload NAME ...]

Runs one sweep per workload and seed ``0 .. seeds-1`` and writes, per
workload, the mean over the seeds of the sweep's mean test score, with
a tolerance of ``max(TOL_FLOOR, TOL_SIGMAS * std)``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import REFERENCE_PATH, ROOT, Sweeper, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOL_FLOOR = 0.05
TOL_SIGMAS = 6.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    reference = load_reference()
    scratch = ROOT / ".perfbench_runs" / "reference"
    try:
        for name in args.workload:
            workload = WORKLOADS[name]
            means = []
            for seed in range(args.seeds):
                result = Sweeper(workload, seed, scratch / str(seed)).sweep()
                cells = result["cells"]
                if len(cells) != len(workload.cells):
                    raise SystemExit(f"{name} seed {seed}: {len(cells)} "
                                     f"scores for {len(workload.cells)} cells")
                means.append(statistics.fmean(c["test_score"] for c in cells))
            std = statistics.pstdev(means)
            reference[name] = {"mean": statistics.fmean(means), "std": std,
                               "tol": max(TOL_FLOOR, TOL_SIGMAS * std),
                               "seeds": len(means)}
            print(f"{name}: sweep mean {reference[name]['mean']:.3f} "
                  f"+- {reference[name]['tol']:.3f} (std {std:.4f})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
