"""Benchmark of relulab on its three experiments.

    python3 relubench/run.py --workload {sweep,shatter,eos} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout with relulab imported from ``src``
(the package need not be installed).  Rounds of the workload repeat until
``--seconds`` have passed; then the outputs of the first round are checked
against the benchmark's own computations.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Artifacts go to ``.relubench_out/`` and are removed when
the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".relubench_out")
sys.path[:0] = [SRC, HERE]

import checks  # noqa: E402  (these need the paths above)
import configs  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import configs\n"
    "configs.setup(sys.argv[1], int(sys.argv[2]))\n"
    "print(time.perf_counter() - start)\n"
)

def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of imports plus configs and inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Metric names and units come from BENCHMARK.json, the one list of them.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    setup = configs.setup(args.workload, args.seed)
    threads = len(os.sched_getaffinity(0))
    play = workloads.ROUNDS[args.workload]
    out = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)

    # With --trace 1 rounds alternate untraced and traced, so one process
    # gives both the per-layer figures and the tracing overhead.
    min_rounds = 2 if args.trace else 1
    rounds, correct = [], True
    try:
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            recorder = probes.Recorder()
            with probes.installed(recorder, probes.LAYER_TARGETS if traced else probes.CELL_TARGETS):
                done = play(setup, os.path.join(out, f"round-{len(rounds)}"), recorder, threads)
            done.traced = traced
            rounds.append(done)
            print(f"round {len(rounds)}{' traced' if traced else ''}: {done.wall_s:.3f} s", file=sys.stderr)
            if len(rounds) > 1:
                checks.check_identical_dirs(rounds[0].directory, done.directory)
                shutil.rmtree(done.directory)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workloads.VERIFY[args.workload](setup, rounds[0])
        if args.trace:
            figures = workloads.layer_metrics(
                [r for r in rounds if r.traced], [r for r in rounds if not r.traced]
            )
        else:
            figures = {
                "setup_s": setup_s,
                "run_s": statistics.median(r.wall_s for r in rounds),
                "cell_s_p50": statistics.median(c for r in rounds for c in r.cell_s),
                "peak_rss_mib": peak_rss_mib,
            }
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, figures = False, {}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted if correct},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
