"""Resource limits shared by every pipeline layer.

The paper's BI-DECOMP measured CPU time over one fixed span (read PLA,
bi-decompose, write BLIF).  A production run needs the reverse: given a
time budget and a memory budget, stop cleanly when either is exhausted.
This module holds the primitives — a wall-clock :class:`Deadline`, the
limit exceptions, and the recursion-limit guard that used to live in
``repro.decomp.driver`` — and deliberately imports nothing from the
rest of the package so that any layer (BDD manager hooks, the
decomposition engine, the CLI) can raise these without import cycles.
"""

import math
import numbers
import sys
import time
from contextlib import contextmanager

#: Recursion headroom: decomposition recursion depth tracks netlist
#: depth, which can exceed Python's default limit on weak-heavy runs.
DEFAULT_RECURSION_LIMIT = 100000


class PipelineError(RuntimeError):
    """Base class for clean pipeline failures (limits, bad configs)."""


class PipelineTimeout(PipelineError):
    """Wall-clock budget exhausted; carries the budget and elapsed time."""

    def __init__(self, budget, elapsed, stage=None):
        self.budget = budget
        self.elapsed = elapsed
        self.stage = stage
        where = " during stage %r" % stage if stage else ""
        super().__init__("time budget of %.3fs exceeded after %.3fs%s"
                         % (budget, elapsed, where))


class NodeLimitExceeded(PipelineError):
    """BDD manager grew past the configured node budget."""

    def __init__(self, limit, nodes, stage=None):
        self.limit = limit
        self.nodes = nodes
        self.stage = stage
        where = " during stage %r" % stage if stage else ""
        super().__init__("BDD node budget of %d exceeded (%d live nodes)%s"
                         % (limit, nodes, where))


def budget_seconds(value, name):
    """*value* as a float number of seconds; ``ValueError`` unless it is
    a real number (not a bool), finite and positive (a NaN budget would
    never expire: every ``elapsed >= nan`` comparison is False)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number of seconds, got %r"
                         % (name, value))
    seconds = float(value)
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError("%s must be a finite positive number of seconds, "
                         "got %r" % (name, value))
    return seconds


class Deadline:
    """A wall-clock budget started at construction time.

    A Deadline may be shared *across processes*: the start timestamp is
    ``time.perf_counter()``, which reads a system-wide monotonic clock
    (CLOCK_MONOTONIC on POSIX, QPC on Windows), so a Deadline carried
    into a worker through fork or pickle keeps measuring elapsed time
    from the moment the parent armed it.  The parallel batch executor
    relies on this for ``budget_scope="batch"``: one Deadline armed at
    sweep start is adopted by every worker session, making the whole
    sweep — not each worker's share of it — run under a single clock.
    """

    def __init__(self, seconds):
        self.seconds = budget_seconds(seconds, "deadline")
        self._started = time.perf_counter()

    def elapsed(self):
        """Seconds since the deadline started."""
        return time.perf_counter() - self._started

    def remaining(self):
        """Seconds left (negative once expired)."""
        return self.seconds - self.elapsed()

    def expired(self):
        """True once the budget is spent."""
        return self.elapsed() >= self.seconds

    def check(self, stage=None):
        """Raise :class:`PipelineTimeout` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.seconds:
            raise PipelineTimeout(self.seconds, elapsed, stage=stage)


@contextmanager
def recursion_guard(limit=DEFAULT_RECURSION_LIMIT):
    """Temporarily raise the interpreter recursion limit.

    Restores the previous limit on exit, including when the guarded
    block raises.  Never lowers an already-higher limit.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
