"""Loopback ``repro worker serve`` processes owned by the benchmark.

Each worker is spawned with ``--port 0``; its bound address is read from
the ``serving on`` line it prints.  Standard output and standard error
go to files in the benchmark's scratch directory, so nothing blocks on
a full pipe and the stderr tracebacks can be counted afterwards
(``engine.distributed.worker_errors``).  :meth:`WorkerGroup.close`
reaps every worker (SIGTERM, then SIGKILL) and is idempotent; the
workers also get SIGTERM if the benchmark process itself dies.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

_SERVING = re.compile(r"serving on (\S+:\d+)")
#: How long a worker may take to print its ``serving on`` line.
START_TIMEOUT_S = 60.0
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Child-side pre-exec hook: SIGTERM this worker when the parent dies."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_PDEATHSIG, signal.SIGTERM
        )
    except (OSError, AttributeError):
        pass


class WorkerError(RuntimeError):
    """A worker failed to start or announce its address."""


class WorkerGroup:
    """``count`` workers serving on loopback, optionally in a fleet root."""

    def __init__(
        self,
        src_dir: str,
        log_dir: str,
        count: int = 2,
        fleet_root: Optional[str] = None,
    ) -> None:
        self.src_dir = src_dir
        self.log_dir = log_dir
        self.count = count
        self.fleet_root = fleet_root
        self.procs: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        self._logs: List[str] = []
        self._outs: List[str] = []
        self._files = []
        self.peak_rss_mb = 0.0

    def start(self) -> List[str]:
        """Spawn every worker and wait until each is serving."""
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        cmd = [
            sys.executable, "-m", "repro", "worker", "serve",
            "--host", "127.0.0.1", "--port", "0",
        ]
        if self.fleet_root is not None:
            cmd += ["--fleet", self.fleet_root]
        base = len(os.listdir(self.log_dir))
        for i in range(self.count):
            out_path = os.path.join(self.log_dir, f"worker-{base + i}.out")
            err_path = os.path.join(self.log_dir, f"worker-{base + i}.err")
            out = open(out_path, "w")
            err = open(err_path, "w")
            self._files += [out, err]
            self._logs.append(err_path)
            self._outs.append(out_path)
            self.procs.append(
                subprocess.Popen(
                    cmd,
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=err,
                    env=env,
                    preexec_fn=_die_with_parent,
                )
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        for proc, out_path in zip(self.procs, self._outs):
            self.addresses.append(self._await_address(proc, out_path, deadline))
        return self.addresses

    def _await_address(
        self, proc: subprocess.Popen, out_path: str, deadline: float
    ) -> str:
        while True:
            with open(out_path) as handle:
                match = _SERVING.search(handle.read())
            if match:
                return match.group(1)
            if proc.poll() is not None:
                raise WorkerError(
                    f"worker exited with code {proc.returncode} before "
                    f"serving; see {out_path}"
                )
            if time.monotonic() > deadline:
                raise WorkerError("worker did not start within the timeout")
            time.sleep(0.005)

    def _read_peak_rss(self) -> None:
        total = 0.0
        for proc in self.procs:
            try:
                with open(f"/proc/{proc.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        self.peak_rss_mb = max(self.peak_rss_mb, total)

    def tracebacks(self) -> int:
        """Tracebacks the workers printed to stderr so far."""
        count = 0
        for path in self._logs:
            with open(path, errors="replace") as handle:
                count += handle.read().count("Traceback (most recent call last)")
        return count

    def close(self) -> None:
        """Terminate and reap every worker (idempotent)."""
        if self.procs:
            self._read_peak_rss()
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        for handle in self._files:
            handle.close()
        self._files = []

    def __enter__(self) -> "WorkerGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
