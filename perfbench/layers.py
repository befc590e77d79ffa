"""Span tracing around the program's public layer functions.

The benchmark measures each layer from outside: :class:`Tracer` rebinds
a public function or method where its caller looks it up (a module
global such as ``repro.core.communication.decode_constant``, or a class
attribute such as ``InterpPlan.interpolate_at``) to a wrapper that
records one span per call.  A span holds its name, start, end, parent
span and request id (the seed of the trial or grid run that caused it).
Spans stay in memory, in flat arrays, and :meth:`Tracer.save` writes
them out once the run ends.

A span's *self* time is its duration minus the time its direct child
spans cover.  Child time is only charged to a parent on the same
thread; a span opened on a thread with no open span is parented to the
current request's root span but overlaps it rather than nesting in it
(the fleet coordinator's job threads run concurrently).
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Flat in-memory span store plus the patches that feed it.

    With ``threaded`` unset every span must open and close on one
    thread, and wrappers take an inlined lock-free path (the flagship
    trial makes ~500k traced calls).  With ``threaded`` set, spans may
    come from any thread: each thread keeps its own open-span stack and
    the store is updated under a lock.
    """

    def __init__(self, threaded: bool = False) -> None:
        self.threaded = threaded
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.requests: List[int] = []
        #: Bits charged while a span of that name was open (when the
        #: wrapper was given a ledger reader).
        self.bits: Dict[str, int] = {}
        self._lock = threading.Lock() if threaded else contextlib.nullcontext()
        self._stack: List[int] = []
        self._stacks: Dict[int, List[int]] = {}
        #: [root span index, request index] of the open request.
        self._state = [-1, -1]
        self._patches: List[Tuple[Any, str, Any]] = []
        self.clock = time.perf_counter

    # -- spans -------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _my_stack(self) -> List[int]:
        if not self.threaded:
            return self._stack
        return self._stacks.setdefault(threading.get_ident(), [])

    def enter(self, nid: int) -> int:
        """Open a span; returns its index for :meth:`exit`."""
        with self._lock:
            stack = self._my_stack()
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else self._state[0])
            self.request.append(self._state[1])
            self.end.append(0.0)
            self.child.append(0.0)
            stack.append(idx)
            self.start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        """Close span ``idx`` and charge its duration to its parent."""
        now = self.clock()
        with self._lock:
            stack = self._my_stack()
            stack.pop()
            self.end[idx] = now
            if stack:
                self.child[stack[-1]] += now - self.start[idx]

    def begin_request(self, request_id: int, name: str) -> int:
        """Open the root span of one request (a trial or a grid run)."""
        self.requests.append(request_id)
        self._state[1] = len(self.requests) - 1
        self._state[0] = self.enter(self.name_id(name))
        return self._state[0]

    def end_request(self, idx: int) -> None:
        self.exit(idx)
        self._state[0] = -1

    # -- patching ----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        ledger: Optional[Callable[[Tuple], Any]] = None,
        on_call: Optional[Callable[[Tuple], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``ledger(args)`` (optional) returns the BitLedger the call
        charges; its total before and after is added to :attr:`bits`.
        ``on_call(args)`` (optional) sees every call's arguments first.
        """
        nid = self.name_id(name)
        if ledger is None and on_call is None and not self.threaded:
            return functools.update_wrapper(self._inline(nid, fn), fn)
        enter, exit_ = self.enter, self.exit
        bits = self.bits

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            book = ledger(args) if ledger is not None else None
            before = book.total_bits() if book is not None else 0
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
                if book is not None:
                    bits[name] = (
                        bits.get(name, 0) + book.total_bits() - before
                    )

        return functools.update_wrapper(traced, fn)

    def _inline(self, nid: int, fn: Callable) -> Callable:
        """The single-threaded wrapper: :meth:`enter`/:meth:`exit` inlined."""
        start, end, child = self.start, self.end, self.child
        add_name, add_parent = self.name.append, self.parent.append
        add_request, add_start = self.request.append, self.start.append
        add_end, add_child = self.end.append, self.child.append
        stack, state, clock = self._stack, self._state, self.clock
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1] if stack else state[0])
            add_request(state[1])
            add_end(0.0)
            add_child(0.0)
            push(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                pop()
                end[idx] = now
                if stack:
                    child[stack[-1]] += now - start[idx]

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every resumption is one span."""
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = enter(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(idx)
                yield value

        return functools.update_wrapper(traced, fn)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        ledger: Optional[Callable[[Tuple], Any]] = None,
        generator: bool = False,
        on_call: Optional[Callable[[Tuple], None]] = None,
    ) -> None:
        """Rebind ``owner.attr`` to its traced wrapper."""
        original = owner.__dict__[attr]
        wrapped = (
            self.wrap_generator(name, original)
            if generator
            else self.wrap(name, original, ledger, on_call)
        )
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        """Rebind ``owner.attr`` untraced (restored by :meth:`unpatch`)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every rebound name (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the span columns (safe while spans keep arriving)."""
        count = len(self.end)
        return {
            "name": np.frombuffer(self.name, dtype=np.int_)[:count].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[:count].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[:count].copy(),
            "child": np.frombuffer(self.child, dtype=np.float64)[:count].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_)[:count].copy(),
            "request": np.frombuffer(self.request, dtype=np.int_)[:count].copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        total = np.bincount(a["name"], weights=dur, minlength=size)
        own = np.bincount(a["name"], weights=dur - a["child"], minlength=size)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def covered_fraction(self, root_name: str) -> float:
        """Share of the root spans' wall time covered by named child spans."""
        a = self.arrays()
        nid = self._ids.get(root_name)
        if nid is None:
            return 0.0
        roots = a["name"] == nid
        wall = float((a["end"] - a["start"])[roots].sum())
        covered = float(a["child"][roots].sum())
        return covered / wall if wall > 0 else 0.0

    def save(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span (and the name/request tables) to ``path``."""
        header = dict(meta, names=self.names, requests=self.requests)
        with open(path, "wb") as handle:
            np.savez(handle, header=np.array(json.dumps(header)), **self.arrays())


def render_table(
    title: str,
    rows: List[Tuple[str, int, float, Optional[int]]],
    wall_s: float,
    footer: Dict[str, float],
) -> str:
    """The per-layer table: layer, calls, self s, share of wall, bits."""
    lines = [
        f"{title}  (wall {wall_s:.3f} s)",
        f"{'layer':<44} {'calls':>10} {'self s':>10} {'share':>7} "
        f"{'bits':>13}",
    ]
    for layer, calls, self_s, bits in rows:
        share = self_s / wall_s if wall_s > 0 else 0.0
        bits_text = "-" if bits is None else f"{bits:d}"
        lines.append(
            f"{layer:<44} {calls:>10d} {self_s:>10.4f} {share:>7.1%} "
            f"{bits_text:>13}"
        )
    for key, value in footer.items():
        lines.append(f"{key} = {value:.4f}")
    return "\n".join(lines)
