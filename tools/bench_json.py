"""Run relubench for several seeds and write ``BENCH_<workload>.json``.

    python3 tools/bench_json.py --workload shatter --seeds 101 102 103 --seconds 15
    python3 tools/bench_json.py --workload shatter --seeds 101 102 103 --seconds 15 --baseline HEAD

Each seed is one ``relubench/run.py`` process, started fresh.  With
``--baseline REV`` the same seeds also run on a copy of commit ``REV``
(extracted with ``git archive``), alternating which side runs first from one
seed to the next, so slow spells on the machine fall on both sides alike.

The output holds, per side, every run's metrics and the median and quartiles
of each metric; with a baseline, the number of seeds on which the working
tree was better.  It also records nproc, the BLAS thread count, the numpy and
scipy versions and the git SHA of each side.  ``--trace 0`` figures go under
``end_to_end`` and ``--trace 1`` figures under ``per_layer``; the other
section of an existing file is kept.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS would use under this environment."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(checkout, "relubench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed no result:\n{done.stderr}")
    result = json.loads(lines[-1])
    print(f"  seed {seed} {checkout}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
    return result


def _summary(runs: list) -> dict:
    names = next((r["metrics"] for r in runs if r["correct"]), {})
    out = {}
    for name, first in names.items():
        values = [r["metrics"][name]["value"] for r in runs if r["correct"]]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def _side(sha: str, dirty: bool, seeds: list, runs: list) -> dict:
    return {
        "git_sha": sha,
        "uncommitted_changes": dirty,
        "runs": [
            {"seed": s, **r, "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
            for s, r in zip(seeds, runs)
        ],
        "summary": _summary(runs),
    }


def _wins(better: dict, change: list, parent: list) -> dict:
    """Per metric, on how many seeds the working tree read better."""
    out = {}
    for name in next((r["metrics"] for r in change if r["correct"]), {}):
        lower = better[name] == "lower"
        pairs = [
            (c["metrics"][name]["value"], p["metrics"][name]["value"])
            for c, p in zip(change, parent)
            if c["correct"] and p["correct"]
        ]
        out[name] = {
            "change_better": sum((c < p) if lower else (c > p) for c, p in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "shatter", "eos"))
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="git revision to compare against, e.g. HEAD")
    parser.add_argument("--out", help="output path (default BENCH_<workload>.json at the repo root)")
    args = parser.parse_args(argv)
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    head, dirty = _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain"))
    change, parent = [], []
    with tempfile.TemporaryDirectory(prefix="bench_json_") as scratch:
        if args.baseline:
            base_sha = _git("rev-parse", args.baseline)
            archive = os.path.join(scratch, "baseline.tar")
            subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, base_sha], check=True)
            base_dir = os.path.join(scratch, "baseline")
            with tarfile.open(archive) as tar:
                tar.extractall(base_dir, filter="data")
        for i, seed in enumerate(args.seeds):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            for side in order if args.baseline else ("change",):
                checkout = ROOT if side == "change" else base_dir
                (change if side == "change" else parent).append(
                    _run(checkout, args.workload, seed, args.seconds, args.trace)
                )

    section = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "change": _side(head, dirty, args.seeds, change),
    }
    if args.baseline:
        section["parent"] = _side(base_sha, False, args.seeds, parent)
        section["change_better"] = _wins(better, change, parent)

    report = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    report.update(
        {
            "workload": args.workload,
            "environment": {
                "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": _blas_threads(),
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"),
            },
        }
    )
    report["per_layer" if args.trace else "end_to_end"] = section
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out_path)
    return 0 if all(r["correct"] for r in change + parent) else 1


if __name__ == "__main__":
    sys.exit(main())
