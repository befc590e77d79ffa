"""CPU-speed normalisation for timings taken on a shared machine.

On a shared virtual machine the same work can take 1.5x longer from one
second to the next, because other tenants contend for the physical cores
behind the virtual ones.  Longer runs do not average this out (measured
on a 2-vCPU KVM guest, 2.1 GHz Xeon: identical everywhere-ba trials
spread by 24% IQR/median).  So every timed interval is rescaled by how
fast its CPUs were while it ran.

:class:`SpeedMonitor` starts one probe process per CPU it watches,
pinned to that CPU.  Every 20 ms a probe times a fixed pure-Python loop
of dict lookups in CPU time, which a busy neighbour on the same core
stretches but time-slicing with the benchmark's own processes does not,
and appends ``(monotonic time, seconds)`` to a file.  :meth:`SpeedMonitor.scale`
turns a wall-clock interval into *reference seconds*: the interval times
``REFERENCE_PROBE_S`` over the mean probe time the watched CPUs showed
during it.  Pinning the measured process to the probed CPU (flagship
workloads) cut the spread of identical trials from 20-24% to 4-8%.

Run as a script, this file is the probe: ``speed.py <cpu> <path>``.
"""

from __future__ import annotations

import os
import random
import struct
import subprocess
import sys
import time
from typing import List, Sequence

from workers import _die_with_parent

#: Reported times are seconds at the speed where one probe takes this
#: much CPU time, close to its time on an uncontended core of the
#: machine the benchmark was written on (2.1 GHz Xeon, KVM guest).
REFERENCE_PROBE_S = 1e-3
PROBE_INTERVAL_S = 0.02
#: The probe reads random keys of a dict far larger than the L2 cache:
#: like the protocol code, it is slowed by a neighbour's cache and
#: memory traffic, which an arithmetic loop barely notices (measured:
#: identical trials normalised by this probe spread 4-8%, by an
#: arithmetic loop 9-13%).
PROBE_TABLE_SIZE = 300_000
PROBE_LOOKUPS = 2_000


def make_probe():
    table = {i: 7 * i for i in range(PROBE_TABLE_SIZE)}
    rng = random.Random(1)
    keys = [rng.randrange(PROBE_TABLE_SIZE) for _ in range(PROBE_LOOKUPS)]

    def probe() -> int:
        total = 0
        for key in keys:
            total += table[key] % 1009
        return total

    return probe


class SpeedMonitor:
    """Probe processes pinned to ``cpus``, sampling CPU speed."""

    def __init__(self, scratch: str, cpus: Sequence[int]) -> None:
        self.paths: List[str] = []
        self.procs: List[subprocess.Popen] = []
        try:
            for cpu in cpus:
                path = os.path.join(scratch, f"speed-cpu{cpu}.bin")
                open(path, "wb").close()
                self.paths.append(path)
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu), path],
                    stdin=subprocess.DEVNULL,
                    preexec_fn=_die_with_parent,
                ))
            self._await_first_samples()
        except BaseException:
            self.close()
            raise

    def _await_first_samples(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while not all(os.path.getsize(p) >= 16 for p in self.paths):
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError("speed probe exited early")
            if time.monotonic() > deadline:
                raise RuntimeError("speed probe produced no samples")
            time.sleep(0.01)

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe time over ``[t0, t1]`` (monotonic) / reference.

        Above 1 the CPUs ran slower than the reference.  Each CPU's mean
        counts once; an interval shorter than the probe period uses the
        samples nearest to it.
        """
        import numpy as np  # not in the probe processes

        means = []
        for path in self.paths:
            samples = np.fromfile(path, dtype=np.float64)
            samples = samples[: len(samples) // 2 * 2].reshape(-1, 2)
            stamps, seconds = samples[:, 0], samples[:, 1]
            inside = (stamps >= t0) & (stamps <= t1)
            if inside.sum() < 3:
                centre = (t0 + t1) / 2
                inside = np.argsort(np.abs(stamps - centre))[:3]
            means.append(float(seconds[inside].mean()))
        return float(np.mean(means)) / REFERENCE_PROBE_S

    def scale(self, t0: float, t1: float) -> float:
        """Wall seconds ``t1 - t0`` as seconds at the reference speed."""
        return (t1 - t0) / self.factor(t0, t1)

    def close(self) -> None:
        """Stop and reap every probe (idempotent)."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


def _run_probe(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    probe = make_probe()
    with open(path, "ab", buffering=0) as out:
        while True:
            start = time.thread_time()
            probe()
            spent = time.thread_time() - start
            out.write(struct.pack("dd", time.monotonic(), spent))
            time.sleep(PROBE_INTERVAL_S)


if __name__ == "__main__":
    _run_probe(int(sys.argv[1]), sys.argv[2])
