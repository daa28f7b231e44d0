"""circledyn benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload classify-suite --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Each round runs in a fresh `worker.py` process, one at a time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer figures from the outside-in tracer (see perfbench/README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
# processes that only set up, so that setup_s is a median of at least three
SETUP_ONLY = 2
# every worker must have ended this long after the run started
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def spawn(args, deadline, *extra):
    """Run one worker to its end and return its report."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunFailed(f"no time left for a worker within {DEADLINE_S:.0f} s")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), *extra, "--spawned", repr(time.time()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # the worker has been killed and waited for
        raise RunFailed(f"worker still running after {DEADLINE_S:.0f} s") from None
    if proc.returncode:
        raise RunFailed(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "circledyn" / "__init__.py").is_file():
        print(f"no circledyn sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    plain, traced = [], []  # worker reports, one per round
    try:
        setups = [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_ONLY)]
        while True:
            t_round = time.perf_counter()
            plain.append(spawn(args, deadline))
            print(f"round {len(plain)}: {sum(plain[-1]['times']):.3f} s", file=sys.stderr)
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}-round{len(traced) + 1}.json"
                traced.append(spawn(args, deadline, "--trace", "1", "--spans", str(spans)))
                print(f"round {len(traced)}: {sum(traced[-1]['times']):.3f} s traced", file=sys.stderr)
            last = time.perf_counter() - t_round
            if time.perf_counter() - start + last > args.seconds:
                break
    except RunFailed as exc:
        print(f"{tag}: {exc}", file=sys.stderr)
        return 2

    workers = plain + traced
    wrong = [line for w in workers for line in w["wrong"]]
    for line in dict.fromkeys(wrong):
        print(f"WRONG {line}", file=sys.stderr)
    plain_wall = statistics.median(sum(w["times"]) for w in plain)
    if args.trace:
        layers = [w["layers"] for w in traced]
        metrics = {k: statistics.fmean(lay[k] for lay in layers) for k in layers[0]}
        metrics["trace.wall_s"] = statistics.median(sum(w["times"]) for w in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
        units = dict(layer_metric_names())
    else:
        metrics = {
            "setup_s": statistics.median(setups + [w["setup_s"] for w in plain]),
            "wall_s": plain_wall,
            "op_s.p50": statistics.median(t for w in plain for t in w["times"]),
            "peak_rss_mb": max(w["rss_mb"] for w in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not wrong,
        "attempted": sum(len(w["times"]) for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    text = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
