"""Every metric the benchmark emits, with its unit.

``END_TO_END`` is what a user of the system sees, measured with tracing
off; ``PER_LAYER`` comes from the separate traced run.  Flagship
per-layer figures are per trial; sweep-grid and fleet-resume figures
are per grid run.  ``BENCHMARK.json`` lists the same names (the
self-test checks that the two agree).
"""

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "bits_per_trial": "bits",
    "bits_per_proc_max": "bits",
    "rounds_per_trial": "rounds",
    "agreement_rate": "frac",
    "peak_rss_mb": "MB",
}

#: Tournament ledger phases, levels summed (``send_up_level_3`` ->
#: ``send_up``).
AE_PHASES = (
    "send_up", "expose", "agree", "root_reveal", "root_agreement",
    "output_reveal",
)

PER_LAYER = {
    "core.communication.send_secret_up.calls": "count",
    "core.communication.send_secret_up.self_s": "s",
    "core.communication.send_down.calls": "count",
    "core.communication.send_down.self_s": "s",
    "core.communication.send_open.calls": "count",
    "core.communication.send_open.self_s": "s",
    "core.communication.robust_reconstruct.calls": "count",
    "core.communication.robust_reconstruct.clean_frac": "frac",
    "crypto.reed_solomon.decode.calls": "count",
    "crypto.reed_solomon.decode.s": "s",
    "crypto.kernels.interpolate_at.calls": "count",
    "crypto.kernels.interpolate_at.s": "s",
    "crypto.kernels.evaluate_many.calls": "count",
    "crypto.kernels.evaluate_many.s": "s",
    "crypto.shamir.deal.calls": "count",
    "crypto.shamir.deal.s": "s",
    "core.almost_everywhere.s": "s",
    **{f"core.almost_everywhere.bits.{p}": "bits" for p in AE_PHASES},
    "core.ae_to_everywhere.s": "s",
    "core.ae_to_everywhere.bits": "bits",
    "core.ae_to_everywhere.rounds": "rounds",
    "adversary.adaptive.corrupted": "count",
    "net.simulator.step.calls": "count",
    "net.simulator.step.self_s": "s",
    "engine.costplan.plan_s": "s",
    "engine.costplan.skew_max": "ratio",
    "engine.dispatch.units": "count",
    "engine.dispatch.unit_attempts": "count",
    "engine.dispatch.retries": "count",
    "engine.dispatch.rebalances": "count",
    "engine.dispatch.straggler_ratio": "ratio",
    "engine.dispatch.unit_s_p50": "s",
    "engine.distributed.compute_s": "s",
    "engine.distributed.queue_net_s": "s",
    "engine.distributed.lane_busy_frac": "frac",
    "engine.distributed.worker_errors": "count",
    "engine.wire.bytes_per_trial": "bytes",
    "engine.wire.frames": "count",
    "engine.wire.inflight_peak": "count",
    "fleet.queue.unit_writes": "count",
    "fleet.queue.write_s": "s",
    "fleet.coordinator.persisted_at_kill": "count",
    "fleet.coordinator.redone_trials": "count",
    "fleet.coordinator.resume_s": "s",
    "bench.failed_frac": "frac",
    "bench.attributed_frac": "frac",
    "bench.trace_overhead_frac": "frac",
    "bench.speed_factor": "ratio",
}
