"""Shared pieces of the host-clock benchmark: accounting, timing, metrics.

A workload object makes all of its inputs from the seed in its
constructor, builds its VMs in :meth:`Workload.setup`, and runs whole
rounds of the same operations in :meth:`Workload.run_round`.  The
harness repeats set-up, times whole rounds for at least the requested
host seconds, and turns the result into the metric dictionary the
runner prints.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

#: set-up runs per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


class CheckFailed(AssertionError):
    """An output of the program differs from the benchmark's own model."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Account:
    """Operations attempted and failed in one timed window."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n
        if self.reasons[reason] == n:      # first occurrence: say why
            print(f"perfbench: operation failed: {reason}", file=sys.stderr)

    def guard(self, op, n: int = 1):
        """Return ``op()``, or None after counting ``n`` failed operations.

        This is the boundary that keeps a run going to its end: a
        program error inside an operation is recorded with its
        traceback and counted as failed, like a wrong output.  Success
        counts nothing, for ops whose outputs are checked one by one.
        """
        try:
            return op()
        except CheckFailed as err:
            self.fail(str(err), n)
        except Exception as err:  # noqa: BLE001 - recorded and counted
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{type(err).__name__}: {err}", n)
        return None

    def run(self, op, n: int = 1) -> None:
        """Run ``op()`` as ``n`` operations; a failed check fails all ``n``."""
        failed = self.failed
        self.guard(op, n)
        if self.failed == failed:
            self.ok(n)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Workload:
    """One benchmark workload; subclasses define the operations."""

    name = ""
    #: ``peak_rss_mib`` is read after this many rounds: a fixed amount
    #: of work, so a program that grows with every round reads the same
    #: on a fast and on a slow host
    rss_rounds = 4

    def __init__(self, seed: int, **sizes) -> None:
        """``sizes`` overrides class-level sizes (the tests run tiny ones)."""
        for name, value in sizes.items():
            if not hasattr(type(self), name):
                raise TypeError(f"{self.name} has no size {name!r}")
            setattr(self, name, value)
        self.seed = seed
        #: run-level check failures (properties of a whole round)
        self.problems: List[str] = []
        #: virtual-clock figures of the first round (deterministic)
        self.virt: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, account: Account) -> None:
        raise NotImplementedError

    def testbeds(self) -> Iterable:
        raise NotImplementedError

    def hypervisors(self) -> Iterable:
        raise NotImplementedError

    def pool_bytes(self) -> int:
        return 0

    def check(self, *checks) -> None:
        """Run round-level checks; a failure marks the run incorrect."""
        for check in checks:
            try:
                check()
            except CheckFailed as err:
                self.problem(str(err))

    def problem(self, message: str) -> None:
        if message not in self.problems:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        self.problems.append(message)


def registry_counters(testbeds: Iterable) -> Counter:
    """Every counter of the testbeds' metrics registries, summed by path."""
    out: Counter = Counter()
    for tb in testbeds:
        for (path, name, _labels), metric in tb.obs.metrics.walk():
            if type(metric).__name__ == "Counter":
                out[f"{path}.{name}"] += metric.value
    return out


@dataclass
class Measurement:
    workload: Workload
    setup_s: List[float]
    elapsed_s: float
    account: Account
    rss_mib: float
    #: host seconds and completed operations of each round
    rounds: List[tuple]
    counters: Counter
    #: ``layers.TraceSnapshot`` of the last set-up and of the window
    setup_trace: Optional[object] = None
    window_trace: Optional[object] = None

    @property
    def ops_per_s(self) -> float:
        """Operations completed per host second over all timed rounds.

        The host alternates between a fast and a slow speed for tens of
        seconds at a time.  A median over rounds falls in whichever
        speed held most rounds, so it jumps between runs; the whole
        window's rate moves only by the share of time spent at each.
        """
        return (sum(ops for _, ops in self.rounds)
                / sum(secs for secs, _ in self.rounds))


def measure(make, seconds: float, setups: int, tracer=None) -> Measurement:
    """Set up ``setups`` times, then time whole rounds for ``seconds``."""
    setup_times = []
    setup_trace = None
    for _ in range(setups):
        workload = None          # free the previous set-up first
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        workload = make()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            setup_trace = tracer.snapshot()
    gc.collect()
    account = Account()
    before = registry_counters(workload.testbeds())
    if tracer is not None:
        tracer.reset()
    rounds = []
    rss = None
    t0 = now = time.perf_counter()
    while now - t0 < seconds or rss is None:
        completed = account.completed
        workload.run_round(account)
        start, now = now, time.perf_counter()
        rounds.append((now - start, account.completed - completed))
        if len(rounds) == workload.rss_rounds:
            rss = peak_rss_mib()
            now = time.perf_counter()
    elapsed = now - t0
    window_trace = tracer.snapshot() if tracer is not None else None
    counters = registry_counters(workload.testbeds())
    counters.subtract(before)
    return Measurement(
        workload=workload,
        setup_s=setup_times,
        elapsed_s=elapsed,
        account=account,
        rss_mib=rss,
        rounds=rounds,
        counters=counters,
        setup_trace=setup_trace,
        window_trace=window_trace,
    )


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(m: Measurement) -> Dict[str, dict]:
    return {
        "setup_s": {"value": statistics.median(m.setup_s), "unit": "s"},
        "ops_per_s": {"value": m.ops_per_s, "unit": "ops/s"},
        "peak_rss_mib": {"value": m.rss_mib, "unit": "MiB"},
    }
