"""The two acceptance sweeps, run once per session at one job.

Criteria 4 and 5 time them, ``tests/test_golden.py`` pins their report
bytes, and ``tests/test_sweep.py`` reads their findings, so neither
range is swept twice at one job.
"""
import hashlib
import time
from typing import NamedTuple

import pytest

from degmult import cli, sweep


class Swept(NamedTuple):
    """A sweep's report, its wall time, and the sha256 of the bytes the
    CLI writes for it."""

    report: sweep.SweepReport
    seconds: float
    sha256: str


class _Sha256Sink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode())


@pytest.fixture(scope="session")
def cm2_sweep() -> Swept:
    """Acceptance 4's range, cm2 t <= 4, entries <= 6, streamed as CSV."""
    sink = _Sha256Sink()
    start = time.perf_counter()
    report = sweep.write_sweep_csv(sweep.SweepConfig("cm2", t_max=4, entry_max=6), sink)
    return Swept(report, time.perf_counter() - start, sink.hash.hexdigest())


@pytest.fixture(scope="session")
def gor3_sweep() -> Swept:
    """Acceptance 5's range, gor3 t <= 3, entries <= 5, written as JSON."""
    sink = _Sha256Sink()
    start = time.perf_counter()
    report = sweep.verify_all(sweep.SweepConfig("gor3", t_max=3, entry_max=5))
    cli._write_summary(sink, report, "json")
    return Swept(report, time.perf_counter() - start, sink.hash.hexdigest())
