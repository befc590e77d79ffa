"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with everywhere-ba at n=9 and a
two-spec grid, through the same ``run.main`` the benchmark command uses,
and checks that:

* the last output line is the result object, every metric declared in
  ``BENCHMARK.json`` (and ``metrics.py``) is emitted with its unit, and
  the outputs are correct;
* in each traced request the layer self times are non-negative and sum
  to no more than the request's wall time;
* the workloads split the layers as designed (no decoding on a clean
  trial, no wire traffic on the flagship, unit writes only in the fleet);
* fleet-resume's merged results equal sweep-grid's for the same seed.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import Sizes  # noqa: E402

TINY = Sizes(
    flagship_n=9,
    flagship_min_trials=1,
    warmup_n=9,
    grid=(("phase-king", 8, 6), ("bracha-broadcast", 10, 6)),
    check_per_spec=1,
    kill_after_units=1,
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test FAILED: {message}")


def run_one(workload: str, trace: int):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.1",
             "--trace", str(trace)],
            sizes=TINY,
        )
    text = buffer.getvalue()
    check(code == 0, f"{workload} trace={trace} exited {code}")
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    return result, text


def check_result(workload: str, trace: int, result) -> None:
    tag = f"{workload} trace={trace}"
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{tag}: result keys {sorted(result)}",
    )
    declared = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{tag}: metric names differ")
    for name, unit in declared.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{tag}: {name} unit")
        check(math.isfinite(value), f"{tag}: {name} = {value}")
    check(result["attempted"] >= 1, f"{tag}: nothing attempted")
    check(result["failed"] == 0 and result["correct"], f"{tag}: failures")
    if not trace:
        for name in END_TO_END:
            check(metrics[name]["value"] > 0, f"{tag}: {name} is 0")


def check_trace_file(workload: str) -> None:
    """Per request: self times >= 0 and summing to at most wall time."""
    with np.load(os.path.join(ROOT, ".perfbench", f"trace-{workload}.npz")) as z:
        header = json.loads(str(z["header"]))
        dur = z["end"] - z["start"]
        own = dur - z["child"]
        request = z["request"]
        roots = z["parent"] == -1
    check(len(header["requests"]) >= 1, f"{workload}: no traced request")
    check(bool((own >= -1e-9).all()), f"{workload}: negative self time")
    for r in range(len(header["requests"])):
        mine = request == r
        wall = float(dur[mine & roots].sum())
        check(
            float(own[mine].sum()) <= wall * (1 + 1e-9) + 1e-9,
            f"{workload}: layer self times exceed wall time in request {r}",
        )


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == END_TO_END, "BENCHMARK.json end_to_end != metrics.py")
    check(layers == PER_LAYER, "BENCHMARK.json per_layer != metrics.py")
    names = [w["name"] for w in bench["workloads"]]
    check(tuple(names) == run.WORKLOADS, "BENCHMARK.json workloads")


def main() -> int:
    check_benchmark_json()
    digests = {}
    layers = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, text = run_one(workload, trace)
            check_result(workload, trace, result)
            if trace:
                layers[workload] = {
                    k: v["value"] for k, v in result["metrics"].items()
                }
                if workload != "fleet-resume":
                    check_trace_file(workload)
            match = re.search(r"results digest (\w+)", text)
            if match:
                digests.setdefault(workload, match.group(1))
            print(f"ok  {workload} trace={trace}")
    check(
        digests["sweep-grid"] == digests["fleet-resume"],
        "fleet-resume results differ from sweep-grid's",
    )
    check(
        layers["flagship-clean"]["crypto.reed_solomon.decode.calls"] == 0,
        "decoding ran on a clean flagship trial",
    )
    for workload, values in layers.items():
        wire = sum(v for k, v in values.items() if k.startswith("engine.wire."))
        unit_writes = values["fleet.queue.unit_writes"]
        if workload.startswith("flagship"):
            check(wire == 0, f"{workload}: wire traffic on the flagship")
        check(
            (unit_writes > 0) == (workload == "fleet-resume"),
            f"{workload}: fleet.queue.unit_writes = {unit_writes}",
        )
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
