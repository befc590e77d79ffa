"""End-to-end and per-layer benchmark of the King-Saia reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flagship-clean --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics, with a layer table (layer, calls, self s, share of wall, bits).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric as ``{"value": ..., "unit": ...}``).

The program is imported from ``src/`` of the checkout this file sits in;
the run exits non-zero without a result when that tree is missing.
Scratch files go under ``.perfbench/`` in the checkout; traced runs
leave their spans there as ``trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("flagship-clean", "flagship-attack", "sweep-grid", "fleet-resume")


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def run_workload(name: str, ctx):
    import workloads

    if name == "flagship-clean":
        return workloads.flagship(ctx, corrupt=0.0)
    if name == "flagship-attack":
        return workloads.flagship(ctx, corrupt=0.1)
    if name == "sweep-grid":
        return workloads.sweep_grid(ctx)
    return workloads.fleet_resume(ctx)


def result_line(outcome, trace: bool) -> str:
    """The final JSON line: every declared metric with its unit."""
    from metrics import END_TO_END, PER_LAYER

    declared = PER_LAYER if trace else END_TO_END
    missing = sorted(set(declared) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in declared.items()
        },
    })


def main(argv=None, sizes=None) -> int:
    """Run one workload; ``sizes`` (a ``workloads.Sizes``) shrinks the
    inputs for the self-test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    sys.path.insert(0, HERE)
    from metrics import END_TO_END, PER_LAYER
    from workloads import Context

    # SIGTERM unwinds like Ctrl-C, so the finally blocks reap workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        ctx = Context(
            root=ROOT,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scratch=scratch,
        )
        if sizes is not None:
            ctx.sizes = sizes
        outcome = run_workload(args.workload, ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = result_line(outcome, bool(args.trace))
    for line in outcome.lines:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name:<52} {outcome.metrics[name]:>16.6g} {unit}")
    print(
        f"  failed_frac {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / outcome.attempted:.4f}"
    )
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
