"""The four benchmark workloads, each a closed loop driven from one process.

* ``flagship-clean`` / ``flagship-attack`` — ``everywhere-ba`` trials at
  n=27 on the serial backend, one after another, without and with the
  ``bin-stuffing`` adaptive adversary at ``corrupt=0.1``.
* ``sweep-grid`` — ``Engine.run_grid`` over a phase-king /
  bracha-broadcast grid on the distributed backend against two loopback
  ``repro worker serve`` processes, repeated.
* ``fleet-resume`` — the same grid submitted as fleet jobs to two
  ``--fleet`` workers; a coordinator is killed after a fixed number of
  persisted units and a fresh one resumes, repeated.

Every input derives from the workload seed: the flagship trial seeds,
the grid's master seed and the serial spot-check sample.  Each workload
returns an :class:`Outcome`; with ``trace`` set it makes the separate
traced pass and reports the per-layer figures instead of the end-to-end
ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from layers import Tracer, render_table
from metrics import AE_PHASES, PER_LAYER
from speed import SpeedMonitor
from workers import WorkerGroup

#: Every timed interval is on the clock the speed probes stamp.
clock = time.monotonic

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are (the self-test shrinks them)."""

    flagship_n: int = 27
    #: Bit and round metrics are taken over the first this-many trials,
    #: which every run completes, so they repeat exactly for a seed.
    flagship_min_trials: int = 2
    #: Size of the untimed warm-up trial.
    warmup_n: int = 9
    #: (scenario, n, trials) per grid spec.
    grid: Tuple[Tuple[str, int, int], ...] = (
        ("phase-king", 8, 60),
        ("phase-king", 16, 60),
        ("phase-king", 32, 30),
        ("phase-king", 64, 12),
        ("bracha-broadcast", 10, 60),
        ("bracha-broadcast", 16, 40),
    )
    #: Serial spot-check: trials re-run per grid spec.
    check_per_spec: int = 2
    #: The fleet coordinator is killed after persisting this many units.
    kill_after_units: int = 4


@dataclass
class Context:
    """What one run measures, and where it reads and writes."""

    root: str
    seed: int
    seconds: float
    trace: bool
    #: Per-run scratch directory (worker logs, fleet roots).
    scratch: str
    sizes: Sizes = Sizes()

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    @property
    def out_dir(self) -> str:
        return os.path.join(self.root, ".perfbench")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)


#: The success metric each scenario's trials must meet.
SUCCESS: Dict[str, Callable[[Dict[str, float]], bool]] = {
    "everywhere-ba": lambda m: m["agreement"] == 1.0 and m["valid"] == 1.0,
    "phase-king": lambda m: m["agreed"] == 1.0
    and m["decided_fraction"] == 1.0,
    "bracha-broadcast": lambda m: m["accepted_fraction"] == 1.0,
}


def trial_good(runner: str, result) -> bool:
    """The trial ran, reported success, and meets its scenario's check."""
    return (
        result.ok
        and not result.failure
        and result.ledger.total_bits > 0
        and SUCCESS[runner](result.metric_dict())
    )


def seed_stream(label: str, seed: int):
    """The workload's input seeds: a fixed stream per (label, seed)."""
    rng = random.Random(f"perfbench:{label}:{seed}")
    while True:
        yield rng.getrandbits(31)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _save_trace(ctx: Context, tracer: Tracer, label: str) -> None:
    os.makedirs(ctx.out_dir, exist_ok=True)
    path = os.path.join(ctx.out_dir, f"trace-{label}.npz")
    tracer.save(path, {"workload": label, "seed": ctx.seed})


def _table(out: Outcome, title: str, tracer: Tracer, spans, wall: float,
           layers: Dict[str, float], bits: Dict[str, int]) -> None:
    rows = [
        (name, spans[name]["calls"], spans[name]["self_s"], bits.get(name))
        for name in tracer.names
    ]
    rows.sort(key=lambda row: -row[2])
    footer = {
        key: layers[key]
        for key in ("bench.attributed_frac", "bench.trace_overhead_frac")
    }
    out.lines.append(render_table(title, rows, wall, footer))


# -- flagship: everywhere-ba trials on the serial backend ------------------------------


def _flagship_params(corrupt: float) -> Dict[str, object]:
    if corrupt > 0:
        return {"corrupt": corrupt, "adversary": "bin-stuffing"}
    return {}


def _cold_start(ctx: Context, n: int, params: Dict[str, object]) -> None:
    """A fresh interpreter importing the engine and validating the spec."""
    code = (
        "from repro.engine import Engine, ExperimentSpec, get_runner\n"
        f"spec = ExperimentSpec('everywhere-ba', n={n}, trials=1, seed=1, "
        f"params={params!r})\n"
        "get_runner(spec.runner).validate(spec.param_dict(), n=spec.n)\n"
        "Engine('serial')\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=ctx.src),
        cwd=ctx.root,
        check=True,
        stdin=subprocess.DEVNULL,
    )


def _patch_flagship(tracer: Tracer, executions: list) -> None:
    """Rebind the trial-level protocol stack's public functions."""
    from repro.core import (
        almost_everywhere,
        byzantine_agreement,
        communication,
        tournament_net,
    )
    from repro.crypto import kernels, shamir
    from repro.net import simulator

    ledger_of = lambda args: args[0].ledger  # noqa: E731
    for method in ("send_secret_up", "send_down", "send_open"):
        tracer.patch(
            communication.TreeCommunicator, method,
            f"core.communication.{method}", ledger=ledger_of,
        )
    tracer.patch(
        communication, "robust_reconstruct_points",
        "core.communication.robust_reconstruct",
    )
    tracer.patch(
        communication, "decode_constant", "crypto.reed_solomon.decode"
    )
    tracer.patch(
        kernels.InterpPlan, "interpolate_at", "crypto.kernels.interpolate_at"
    )
    tracer.patch(
        kernels.BatchEvalPlan, "evaluate_many",
        "crypto.kernels.evaluate_many",
    )
    tracer.patch(shamir.ShamirScheme, "deal", "crypto.shamir.deal")
    tracer.patch(
        almost_everywhere.Tournament, "__init__", "core.almost_everywhere"
    )
    tracer.patch(
        almost_everywhere.Tournament, "run_stepwise",
        "core.almost_everywhere", generator=True,
    )
    tracer.patch(
        byzantine_agreement, "run_ae_to_everywhere", "core.ae_to_everywhere"
    )
    tracer.patch(simulator.SyncNetwork, "step", "net.simulator.step")

    # Keep each trial's execution: its ledgers give the phase bits.
    build = tournament_net.build_everywhere_ba_network

    def capturing_build(*args, **kwargs):
        network, execution = build(*args, **kwargs)
        executions.append(execution)
        return network, execution

    tracer.rebind(tournament_net, "build_everywhere_ba_network", capturing_build)


@contextlib.contextmanager
def speed_monitor(ctx: Context, pin: bool):
    """A :class:`SpeedMonitor` for the run; with ``pin`` this process and
    its children are pinned to the one CPU the monitor probes."""
    cpus = sorted(os.sched_getaffinity(0))
    if pin:
        os.sched_setaffinity(0, cpus[:1])
    try:
        monitor = SpeedMonitor(ctx.scratch, cpus[:1] if pin else cpus)
        try:
            yield monitor
        finally:
            monitor.close()
    finally:
        os.sched_setaffinity(0, cpus)


def flagship(ctx: Context, corrupt: float) -> Outcome:
    from repro.engine import Engine, ExperimentSpec

    label = "flagship-attack" if corrupt > 0 else "flagship-clean"
    sizes = ctx.sizes
    params = _flagship_params(corrupt)
    out = Outcome()
    with speed_monitor(ctx, pin=True) as speed:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            _cold_start(ctx, sizes.flagship_n, params)
            setup.append(speed.scale(start, clock()))
        engine = Engine("serial")
        # Warm-up: one small trial loads every lazily imported module,
        # so the first timed trial pays only for its own work.
        engine.run(ExperimentSpec(
            runner="everywhere-ba", n=sizes.warmup_n, trials=1, seed=0,
            params=params,
        ))

        def run_trial(trial_seed: int):
            """One trial: its result, wall seconds and reference seconds."""
            spec = ExperimentSpec(
                runner="everywhere-ba", n=sizes.flagship_n, trials=1,
                seed=trial_seed, params=params,
            )
            start = clock()
            result = engine.run(spec).trials[0]
            end = clock()
            out.attempted += 1
            if not trial_good("everywhere-ba", result):
                out.failed += 1
            return result, end - start, speed.scale(start, end)

        seeds = seed_stream(label, ctx.seed)
        if ctx.trace:
            _flagship_traced(ctx, label, out, run_trial, seeds)
        else:
            _flagship_timed(ctx, label, out, run_trial, seeds, setup)
    return out


def _flagship_timed(ctx, label, out, run_trial, seeds, setup) -> None:
    sizes = ctx.sizes
    results, walls, times = [], [], []
    begin = clock()
    while (
        len(results) < sizes.flagship_min_trials
        or clock() - begin < ctx.seconds
    ):
        result, wall, scaled = run_trial(next(seeds))
        results.append(result)
        walls.append(wall)
        times.append(scaled)
    head = results[: sizes.flagship_min_trials]
    out.metrics = {
        "setup_s": median(setup),
        "trials_per_s": 1.0 / median(times),
        "bits_per_trial": statistics.fmean(
            r.ledger.total_bits for r in head
        ),
        "bits_per_proc_max": statistics.fmean(
            r.ledger.max_bits_per_processor for r in head
        ),
        "rounds_per_trial": statistics.fmean(r.ledger.rounds for r in head),
        "agreement_rate": (out.attempted - out.failed) / out.attempted,
        "peak_rss_mb": self_rss_mb(),
    }
    out.lines.append(
        f"{label}: {len(times)} trials; s/trial median {median(times):.3f} "
        f"at reference speed, {median(walls):.3f} wall (min "
        f"{min(walls):.3f}, max {max(walls):.3f}); set-up "
        f"{', '.join(f'{s:.3f}' for s in setup)} s"
    )


def _flagship_traced(ctx, label, out, run_trial, seeds) -> None:
    """The traced pass.

    Each trial runs twice on one seed, untraced then traced, with the
    kernel plan caches cleared before each run, so the difference
    between the two is the tracing overhead alone.
    """
    from repro.crypto.kernels import clear_plan_caches

    tracer = Tracer()
    executions: list = []
    untraced, traced, walls = [], [], []
    begin = clock()
    while not traced or clock() - begin < ctx.seconds:
        trial_seed = next(seeds)
        clear_plan_caches()
        untraced.append(run_trial(trial_seed)[2])
        clear_plan_caches()
        _patch_flagship(tracer, executions)
        try:
            root = tracer.begin_request(trial_seed, "bench.trial")
            try:
                _, wall, scaled = run_trial(trial_seed)
            finally:
                tracer.end_request(root)
        finally:
            tracer.unpatch()
        traced.append(scaled)
        walls.append(wall)
    count = len(traced)
    spans = tracer.summary()

    def per_trial(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0) / count

    phases: Dict[str, int] = {}
    ae2e_bits = ae2e_rounds = corrupted = 0
    for execution in executions:
        result = execution.result
        for phase, bits in result.ae_result.ledger.phase_breakdown().items():
            group = phase.split("_level_")[0]
            phases[group] = phases.get(group, 0) + bits
        ae2e_bits += sum(result.ae2e_result.sent_bits.values())
        ae2e_rounds += result.ae2e_result.rounds
        corrupted += len(result.corrupted)

    layers = dict.fromkeys(PER_LAYER, 0.0)
    for name in (
        "core.communication.send_secret_up",
        "core.communication.send_down",
        "core.communication.send_open",
        "net.simulator.step",
    ):
        layers[f"{name}.calls"] = per_trial(name, "calls")
        layers[f"{name}.self_s"] = per_trial(name, "self_s")
    for name in (
        "crypto.reed_solomon.decode",
        "crypto.kernels.interpolate_at",
        "crypto.kernels.evaluate_many",
        "crypto.shamir.deal",
    ):
        layers[f"{name}.calls"] = per_trial(name, "calls")
        layers[f"{name}.s"] = per_trial(name, "s")
    rr_calls = per_trial("core.communication.robust_reconstruct", "calls")
    decode_calls = layers["crypto.reed_solomon.decode.calls"]
    layers.update({
        "core.communication.robust_reconstruct.calls": rr_calls,
        # Every call that fails the clean-pool check decodes exactly once.
        "core.communication.robust_reconstruct.clean_frac": (
            (rr_calls - decode_calls) / rr_calls if rr_calls else 0.0
        ),
        "core.almost_everywhere.s": per_trial("core.almost_everywhere", "s"),
        "core.ae_to_everywhere.s": per_trial("core.ae_to_everywhere", "s"),
        "core.ae_to_everywhere.bits": ae2e_bits / count,
        "core.ae_to_everywhere.rounds": ae2e_rounds / count,
        "adversary.adaptive.corrupted": corrupted / count,
        "bench.failed_frac": out.failed / out.attempted,
        "bench.attributed_frac": tracer.covered_fraction("bench.trial"),
        "bench.trace_overhead_frac": sum(traced) / sum(untraced) - 1.0,
        "bench.speed_factor": sum(walls) / sum(traced),
    })
    for group in AE_PHASES:
        layers[f"core.almost_everywhere.bits.{group}"] = (
            phases.get(group, 0) / count
        )
    out.metrics = layers
    bits = dict(tracer.bits)
    bits["core.almost_everywhere"] = sum(phases.values())
    bits["core.ae_to_everywhere"] = ae2e_bits
    _table(out, f"{label} traced layers, {count} trial(s)", tracer, spans,
           sum(walls), layers, bits)
    _save_trace(ctx, tracer, label)


# -- the grid: distributed sweep and fleet jobs ---------------------------------------


def grid_specs(ctx: Context):
    from repro.engine import ExperimentSpec

    master = next(seed_stream("grid", ctx.seed))
    return [
        ExperimentSpec(runner=runner, n=n, trials=trials, seed=master)
        for runner, n, trials in ctx.sizes.grid
    ]


def results_digest(per_spec: Sequence[Sequence]) -> str:
    """SHA-256 over every trial result's wire form, in spec order."""
    from repro.engine.spec import result_to_wire

    doc = [[result_to_wire(r) for r in results] for results in per_spec]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()[:16]


class GridTally:
    """Checks every grid run's results and accumulates the rates.

    The first run's results are the reference: a seeded sample of them
    is re-run on the serial path and must be equal; every later run must
    equal the reference trial for trial.  A trial that fails its
    scenario check, or differs, counts as failed.
    """

    def __init__(self, ctx: Context, specs, out: Outcome) -> None:
        self.ctx = ctx
        self.specs = specs
        self.out = out
        self.reference: Optional[List[List]] = None
        #: Per grid run: trials, reference seconds, wall seconds.
        self.trials: List[int] = []
        self.seconds: List[float] = []
        self.walls: List[float] = []
        self.runs = 0

    def add(self, per_spec: List[List], elapsed: float, wall: float) -> None:
        """Check one grid run; ``elapsed`` is in reference seconds.

        Every spec's trials count as attempted; a spec whose results do
        not cover its trials exactly once counts as failed entirely.
        """
        out = self.out
        reference = self.reference or per_spec
        trials = 0
        for spec, results, expected in zip(self.specs, per_spec, reference):
            trials += spec.trials
            out.attempted += spec.trials
            if [r.trial_index for r in results] != list(range(spec.trials)):
                out.failed += spec.trials
                continue
            out.failed += sum(
                1
                for r, e in zip(results, expected)
                if r != e or not trial_good(spec.runner, r)
            )
        self.trials.append(trials)
        self.seconds.append(elapsed)
        self.walls.append(wall)
        self.runs += 1
        if self.reference is None:
            self.reference = per_spec
            self._serial_check(per_spec)

    def _serial_check(self, per_spec: List[List]) -> None:
        from repro.engine import run_one_trial

        rng = random.Random(f"perfbench:check:{self.ctx.seed}")
        checked = mismatched = 0
        for spec, results in zip(self.specs, per_spec):
            by_index = {r.trial_index: r for r in results}
            sample = rng.sample(range(spec.trials), self.ctx.sizes.check_per_spec)
            for index in sample:
                checked += 1
                if by_index.get(index) != run_one_trial(spec, index):
                    mismatched += 1
        self.out.attempted += checked
        self.out.failed += mismatched
        self.out.lines.append(
            f"serial spot-check: {checked - mismatched}/{checked} sampled "
            "trials equal the serial backend's"
        )

    def end_to_end(self, setup: List[float], rss: float) -> Dict[str, float]:
        trials = [r for results in self.reference for r in results]
        out = self.out
        return {
            "setup_s": median(setup),
            "trials_per_s": self.rate(self.seconds),
            "bits_per_trial": statistics.fmean(
                r.ledger.total_bits for r in trials
            ),
            "bits_per_proc_max": statistics.fmean(
                r.ledger.max_bits_per_processor for r in trials
            ),
            "rounds_per_trial": statistics.fmean(
                r.ledger.rounds for r in trials
            ),
            "agreement_rate": (out.attempted - out.failed) / out.attempted,
            "peak_rss_mb": rss,
        }

    def rate(self, seconds: List[float]) -> float:
        """Trials per second over every run but the first, which also
        dials the lanes and imports what the run loads lazily."""
        return sum(self.trials[1:]) / sum(seconds[1:])

    def summary_line(self, label: str, setup: List[float]) -> str:
        trials = sum(len(r) for r in self.reference)
        return (
            f"{label}: {self.runs} grid runs of {trials} trials; trials/s "
            f"{self.rate(self.seconds):.2f} at reference speed, "
            f"{self.rate(self.walls):.2f} wall (per run min "
            f"{min(t / w for t, w in zip(self.trials, self.walls)):.2f}, max "
            f"{max(t / w for t, w in zip(self.trials, self.walls)):.2f}); "
            f"results digest {results_digest(self.reference)}; set-up "
            f"{', '.join(f'{s:.3f}' for s in setup)} s"
        )


def _start_workers(
    ctx: Context, fleet: bool, groups: List[WorkerGroup], speed
) -> List[float]:
    """Start two workers SETUP_REPEATS times, keeping the last group;
    returns each start's reference seconds.

    Every group goes into ``groups`` as soon as it exists, so the
    caller's ``finally`` reaps it whatever fails later.
    """
    times: List[float] = []
    for _ in range(SETUP_REPEATS):
        if groups:
            groups[-1].close()
        root = (
            tempfile.mkdtemp(prefix="fleet-", dir=ctx.scratch)
            if fleet else None
        )
        start = clock()
        group = WorkerGroup(ctx.src, ctx.scratch, count=2, fleet_root=root)
        groups.append(group)
        group.start()
        times.append(speed.scale(start, clock()))
    return times


def _report_layers(reports, trials: int) -> Dict[str, float]:
    """Per-grid-run dispatch and wire figures from the RunReports.

    ``reports`` holds one list of reports per grid run (the fleet writes
    one report per job).
    """
    runs = len(reports)
    flat = [r for run in reports for r in run]
    lanes = [lane for report in flat for lane in report.lanes]
    skews, busy, stragglers, p50s = [], [], [], []
    for report in flat:
        predicted = sum(sum(l.predicted_costs) for l in report.lanes)
        measured = sum(
            l.measured_seconds() for l in report.lanes if l.predicted_costs
        )
        rate = measured / predicted if predicted else 0.0
        lane_skews = [
            s for s in (l.cost_skew(rate) for l in report.lanes)
            if s is not None
        ]
        if lane_skews:
            skews.append(max(lane_skews))
        if report.lanes and report.wall_seconds > 0:
            busy.append(
                sum(l.measured_seconds() for l in report.lanes)
                / (report.wall_seconds * len(report.lanes))
            )
        stragglers.append(report.straggler_ratio())
        p50s.append(report.unit_latency(50))
    wire_bytes = sum(lane.bytes_out + lane.bytes_in for lane in lanes)
    return {
        "engine.costplan.skew_max": median(skews),
        "engine.dispatch.units": sum(
            lane.units_ok + lane.units_failed for lane in lanes
        ) / runs,
        "engine.dispatch.unit_attempts": sum(
            r.unit_attempts for r in flat
        ) / runs,
        "engine.dispatch.retries": sum(r.retries for r in flat) / runs,
        "engine.dispatch.rebalances": sum(r.rebalances for r in flat) / runs,
        "engine.dispatch.straggler_ratio": median(stragglers),
        "engine.dispatch.unit_s_p50": median(p50s),
        "engine.distributed.compute_s": sum(
            sum(lane.compute_seconds) for lane in lanes
        ) / runs,
        "engine.distributed.queue_net_s": sum(
            lane.queue_wait_seconds() for lane in lanes
        ) / runs,
        "engine.distributed.lane_busy_frac": median(busy),
        "engine.wire.bytes_per_trial": wire_bytes / trials if trials else 0.0,
        "engine.wire.frames": sum(lane.frames for lane in lanes) / runs,
        "engine.wire.inflight_peak": float(
            max((lane.inflight_peak for lane in lanes), default=0)
        ),
    }


def _grid_workload(
    ctx: Context,
    label: str,
    fleet: bool,
    run_once: Callable[
        [WorkerGroup, SpeedMonitor], Tuple[List[List], list, Dict[str, float]]
    ],
    patch: Callable[[Tracer], None],
) -> Outcome:
    """The closed loop shared by sweep-grid and fleet-resume.

    ``run_once(group, speed)`` runs the grid once and returns the
    per-spec results, that run's RunReports and any per-layer figures
    the workload measures itself; ``patch(tracer)`` rebinds the layer
    functions the traced runs time.
    """
    out = Outcome()
    specs = grid_specs(ctx)
    tally = GridTally(ctx, specs, out)
    tracer = Tracer(threaded=True) if ctx.trace else None
    groups: List[WorkerGroup] = []
    reports, untraced, traced, walls, facts = [], [], [], [], []
    with speed_monitor(ctx, pin=False) as speed:
        try:
            setup = _start_workers(ctx, fleet, groups, speed)
            begin = clock()
            # At least three runs; in the traced pass run 0 warms the
            # lanes up, then traced and untraced runs alternate.
            while tally.runs < 3 or clock() - begin < ctx.seconds:
                index = tally.runs
                tracing = tracer is not None and index % 2 == 1
                if tracing:
                    patch(tracer)
                    root = tracer.begin_request(specs[0].seed, "bench.grid")
                start = clock()
                try:
                    per_spec, run_reports, run_facts = run_once(
                        groups[-1], speed
                    )
                finally:
                    if tracing:
                        tracer.end_request(root)
                        tracer.unpatch()
                end = clock()
                scaled = speed.scale(start, end)
                tally.add(per_spec, scaled, end - start)
                if tracing:
                    reports.append(run_reports)
                    facts.append(run_facts)
                    traced.append(scaled)
                    walls.append(end - start)
                elif index > 0:
                    untraced.append(scaled)
            worker_errors = sum(group.tracebacks() for group in groups)
        finally:
            for group in groups:
                group.close()
    out.lines.append(tally.summary_line(label, setup))
    out.lines.append(f"{label}: worker stderr tracebacks {worker_errors}")
    if tracer is None:
        rss = self_rss_mb() + groups[-1].peak_rss_mb
        out.metrics = tally.end_to_end(setup, rss)
        return out
    trials = sum(len(r) for r in tally.reference)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(_report_layers(reports, trials * len(reports)))
    spans = tracer.summary()
    runs = len(traced)
    for key in facts[0]:
        layers[key] = median([f[key] for f in facts])
    write = spans.get("fleet.queue.unit_write", {"calls": 0, "s": 0.0})
    layers.update({
        "engine.costplan.plan_s": (
            spans.get("engine.costplan.plan", {}).get("s", 0.0) / runs
        ),
        "fleet.queue.unit_writes": write["calls"] / runs,
        "fleet.queue.write_s": write["s"] / runs,
        "engine.distributed.worker_errors": float(worker_errors),
        "bench.failed_frac": out.failed / out.attempted,
        "bench.attributed_frac": tracer.covered_fraction("bench.grid"),
        "bench.trace_overhead_frac": median(traced) / median(untraced) - 1.0,
        "bench.speed_factor": sum(walls) / sum(traced),
    })
    out.metrics = layers
    _table(out, f"{label} traced layers, {len(traced)} grid run(s)", tracer,
           spans, sum(walls), layers, {})
    _save_trace(ctx, tracer, label)
    return out


def sweep_grid(ctx: Context) -> Outcome:
    from repro.engine import DistributedBackend, Engine, costplan, distributed

    specs = grid_specs(ctx)
    engines: Dict[int, Engine] = {}

    def run_once(group: WorkerGroup, speed: SpeedMonitor):
        # One engine (and so one set of lanes) per worker group.
        engine = engines.get(id(group))
        if engine is None:
            engine = engines[id(group)] = Engine(
                DistributedBackend(hosts=group.addresses)
            )
        results = engine.run_grid(specs)
        return [r.trials for r in results], [results[0].report], {}

    def patch(tracer: Tracer) -> None:
        tracer.patch(costplan, "plan_grid", "engine.costplan.plan")
        tracer.patch(
            distributed, "run_grid_units", "engine.dispatch.collect"
        )

    try:
        return _grid_workload(ctx, "sweep-grid", False, run_once, patch)
    finally:
        for engine in engines.values():
            engine.close()


def fleet_resume(ctx: Context) -> Outcome:
    from repro.engine import costplan
    from repro.engine.telemetry import load_report
    from repro.fleet import coordinator as coord
    from repro.fleet.queue import JobQueue, UnitStore

    specs = grid_specs(ctx)
    kill_after = ctx.sizes.kill_after_units
    persisted_at_kill: List[int] = []
    resume_s: List[float] = []
    #: (unit store dir, unit index, trials) per UnitStore.save while traced.
    saves: List[Tuple[str, int, int]] = []
    kills = 0

    def run_once(group: WorkerGroup, speed: SpeedMonitor):
        nonlocal kills
        root = group.fleet_root
        queue = JobQueue(root)
        jobs = [queue.submit(spec) for spec in specs]
        try:
            coord.Coordinator(root, crash_after_units=kill_after).run_once(
                min_workers=2
            )
        except coord.CoordinatorKilled:
            kills += 1
        persisted = {
            (UnitStore(root, job.job_id).dir, index)
            for job in jobs
            for index in UnitStore(root, job.job_id).completed_indices()
        }
        persisted_at_kill.append(len(persisted))
        resume_from = len(saves)
        start = clock()
        coord.Coordinator(root).run_once(min_workers=2)
        resume_s.append(speed.scale(start, clock()))
        per_spec, reports = [], []
        for job in jobs:
            final = queue.get(job.job_id)
            results = queue.load_results(job.job_id) or []
            per_spec.append(results if final.state == "done" else [])
            reports.append(load_report(queue.report_path(job.job_id)))
        return per_spec, reports, {
            "fleet.coordinator.persisted_at_kill": len(persisted),
            # Units are saved again only if a persisted one was redone
            # (``saves`` fills only while UnitStore.save is traced).
            "fleet.coordinator.redone_trials": sum(
                trials for store, index, trials in saves[resume_from:]
                if (store, index) in persisted
            ),
            "fleet.coordinator.resume_s": resume_s[-1],
        }

    def note_save(args) -> None:
        store, index, _unit, results = args
        saves.append((store.dir, index, len(results)))

    def patch(tracer: Tracer) -> None:
        tracer.patch(coord, "spec_trial_cost", "engine.costplan.plan")
        tracer.patch(
            costplan, "cost_sized_unit_size", "engine.costplan.plan"
        )
        tracer.patch(coord, "run_units", "engine.dispatch.collect")
        tracer.patch(
            UnitStore, "save", "fleet.queue.unit_write", on_call=note_save
        )
        tracer.patch(
            coord.Coordinator, "run_once", "fleet.coordinator.run_once"
        )

    out = _grid_workload(ctx, "fleet-resume", True, run_once, patch)
    out.lines.append(
        f"fleet-resume: {kills} coordinator kills in {len(resume_s)} runs; "
        f"resume s median {median(resume_s):.3f}; units persisted at kill "
        f"{persisted_at_kill}"
    )
    if kills < len(resume_s):
        # A run whose coordinator was never killed did not exercise
        # crash-resume: its trials count as failed.
        out.failed += len(resume_s) - kills
    return out
