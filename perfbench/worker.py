"""One process of a benchmark run: set up one workload, then run its whole
operation list once (one round), timed, and traced if asked.

    python3 perfbench/worker.py --workload classify-suite --seed 1 --spawned <time.time()>

`run.py` starts a fresh worker for every round, so that nothing one round
leaves in the process (a module-level cache, say) makes a later round
cheaper.  `--spawned` is the ``time.time()`` at which the caller started
this process; `setup_s` is the time from then to the first timed
operation.  The last line of standard output is one JSON object.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"


def run_round(ops, known_fault, tracer=None):
    """Run every operation once; returns (op times, failures, wrong answers).

    An operation whose check raises `known_fault` is counted as failed but
    not as wrong; any other failure is both."""
    times, failed, wrong = [], 0, []
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is wrong
            result, problem = None, f"raised {exc!r}"
        else:
            problem = None
        times.append(time.perf_counter() - t0)
        if problem is None:
            try:
                op.check(result)
            except known_fault:
                failed += 1
            except Exception as exc:  # a failed or crashing check is wrong
                problem = str(exc) or repr(exc)
        if problem:
            failed += 1
            wrong.append(f"{op.name}: {problem}")
    return times, failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where a traced round writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="stop before the round")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import circledyn
    import workloads
    from spans import Tracer

    if Path(circledyn.__file__).resolve().parent != SRC / "circledyn":
        print(f"circledyn imported from {circledyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        wl.warmup()
        report = {"setup_s": time.time() - args.spawned}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            if tracer:
                tracer.install()
            try:
                times, failed, wrong = run_round(wl.ops, workloads.KnownFault, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            report.update(
                times=times,
                failed=failed,
                wrong=wrong,
                rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if tracer:
                report["layers"] = tracer.metrics()
                if args.spans:
                    tracer.dump(args.spans, [op.name for op in wl.ops])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
