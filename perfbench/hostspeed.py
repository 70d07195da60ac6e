"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings by
up to a third over seconds and drifts from minute to minute, so the same
campaign reads up to ~20% slower or faster from one run to the next.  To
keep that out of the end-to-end timings, the process doing the work runs
a short fixed pure-Python loop (:func:`calibrate`) before every unit
and after the last one.  Each unit's time is then scaled by how much
faster or slower than :data:`REFERENCE_S` those loops ran around it
(:func:`normalize`).  A unit that runs at reference speed keeps its
measured time, and a change that makes the program faster or slower
moves the scaled time by the same factor.  The raw times are printed
beside the scaled ones.

The loops run on the thread that runs the units, and their time is taken
out of every unit's time.
"""

from __future__ import annotations

import ast
import bisect
import random
import statistics
import sys
import time
from typing import List, Sequence, Tuple

#: iterations of the calibration loop's first two parts; the whole loop
#: takes about 15 ms
ITERATIONS = 20_000
CHASE_STEPS = 6_000
#: objects the second part walks: about 1.5 MB, more than a core's
#: private caches hold
CHASE_OBJECTS = 1 << 14
#: the loop's median duration on the host the benchmark was defined on
#: (a 2-vCPU VM); scaled times are seconds at that speed
REFERENCE_S = 0.015
#: seconds on either side of a unit whose calibration samples count
WINDOW_S = 1.5


class _Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int):
        self.value = value
        self.link = None


_chase: list = []


def _chase_data() -> tuple:
    """A ring of :data:`CHASE_OBJECTS` nodes linked in a fixed random
    order, and a dict over a third of their values; built on first
    use."""
    if not _chase:
        nodes = [_Node(i) for i in range(CHASE_OBJECTS)]
        order = list(range(CHASE_OBJECTS))
        random.Random(1).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].link = nodes[there]
        lookup = {i * 7919: i for i in range(0, CHASE_OBJECTS, 3)}
        _chase.extend([nodes, lookup])
    return _chase[0][0], _chase[1]


def _bump(node: _Node, step: int) -> int:
    return (node.value + step) & 0xFFFF


def _visitor_tree() -> ast.AST:
    """The syntax tree the third part of the loop walks: 20 small
    generated functions, parsed on first use."""
    if not _tree:
        lines = []
        for f in range(20):
            lines.append(f"def f{f}(a, b):")
            for k in range(6):
                lines += [f"    if a > {k}:",
                          f"        b = [x * {k} for x in range(a)] + [b]",
                          "    else:",
                          f"        a = {{'k': a, 'v': b}}.get('k', {k})"]
            lines.append("    return a, b")
        _tree.append(ast.parse("\n".join(lines)))
    return _tree[0]


_tree: list = []


class _Visitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.nodes = 0
        self.names = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.nodes += 1
        self.names.add(node.id)

    def visit_Constant(self, node: ast.Constant) -> None:
        self.nodes += len(repr(node.value))

    def generic_visit(self, node: ast.AST) -> None:
        self.nodes += 1
        super().generic_visit(node)


def calibrate() -> float:
    """Run the fixed loop once; return its duration in seconds.

    The host's speed swings do not slow all code alike, so the loop has
    three parts: register-like arithmetic on a small list and dict,
    which stays in the L1 cache; a pointer chase with calls and a dict
    lookup per step over more objects than the private caches hold, as
    the simulator's own object graph does; and an ``ast.NodeVisitor``
    walk, method dispatch over many small objects, as the front end
    and translator do.  Only the standard library runs, so a change to
    this repository cannot move it.
    """
    regs = [0] * 16
    table = {i: i * 3 for i in range(64)}
    node, lookup = _chase_data()
    tree = _visitor_tree()
    acc = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        r = i & 15
        regs[r] = (regs[r] + table[i & 63]) & 0xFFFF
        acc ^= regs[r]
    for i in range(CHASE_STEPS):
        node = node.link
        node.value = _bump(node, i)
        acc += lookup.get((node.value & (CHASE_OBJECTS - 1)) * 7919, 0)
    _Visitor().visit(tree)
    return time.perf_counter() - start


class Calibrator:
    """Calibration samples taken between units: ``(when, duration)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.total_s = 0.0
        #: when the last sample ended
        self.last = 0.0

    def sample(self) -> float:
        """Take one sample; return the time the next unit starts at."""
        # no other thread of the process (the serve benchmark's HTTP
        # front end) takes the GIL while the loop runs: wall time then
        # counts the host's stalls, including a preempted vCPU, and not
        # the process's own threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            started = time.perf_counter()
            duration = calibrate()
            ended = time.perf_counter()
        finally:
            sys.setswitchinterval(interval)
        self.samples.append(((started + ended) / 2, duration))
        self.total_s += ended - started
        self.last = ended
        return ended


def speed_factor(durations: Sequence[float]) -> float:
    """How much faster than reference the host ran these samples
    (below 1 when it ran slower)."""
    return REFERENCE_S / statistics.fmean(durations)


def normalize(spans: Sequence[Tuple[float, float]],
              samples: Sequence[Tuple[float, float]],
              window: float = WINDOW_S) -> List[float]:
    """Each ``(start, end)`` span's duration scaled to reference speed
    by the samples within ``window`` seconds of it (at least the one
    nearest on each side)."""
    times = [when for when, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - window)
        hi = bisect.bisect_right(times, end + window)
        # the last sample at or before the start, the first at or after
        # the end
        lo = min(lo, max(0, bisect.bisect_right(times, start) - 1))
        hi = max(hi, min(len(times), bisect.bisect_left(times, end) + 1))
        durations = [duration for _, duration in samples[lo:hi]]
        out.append((end - start) * speed_factor(durations))
    return out
