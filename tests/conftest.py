import collections
import contextlib
import io
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from expcircle import (AuditResult, density_grid, invariant_density, linear_map,
                       perturbed_map, transfer_operator)
from expcircle.cli import RunConfig, main, make_map

M = 4096
X = np.arange(M) / M


@pytest.fixture(scope="session")
def doubling():
    return linear_map(2)


@pytest.fixture(scope="session")
def tripling():
    return linear_map(3)


@pytest.fixture(scope="session")
def bent():
    """The workhorse non-linear map: degree 2, eps = 0.05."""
    return perturbed_map(2, 0.05)


@pytest.fixture(scope="session")
def bent_phi(bent):
    phi, _ = invariant_density(bent)
    return phi


def start_counting(monkeypatch) -> collections.Counter:
    """A counter of operator applications ("apply"), Hoelder lag scans
    ("scan": one per profile of a non-constant f with an alpha < 1) and the
    lag rows those scans visit ("rows"), counting from now on: through
    ``monkeypatch``, apply_function is wrapped in every expcircle namespace
    that bound it, and _lag_scan and _scan_rows in density_grid."""
    counts = collections.Counter()
    apply_function = transfer_operator.apply_function
    lag_scan = density_grid._lag_scan
    scan_rows = density_grid._scan_rows

    def counted_apply(m, f):
        counts["apply"] += 1
        return apply_function(m, f)

    def counted_scan(*args):
        counts["scan"] += 1
        return lag_scan(*args)

    def counted_rows(rows, *args):
        counts["rows"] += len(rows)
        return scan_rows(rows, *args)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("expcircle")
                and getattr(mod, "apply_function", None) is apply_function):
            monkeypatch.setattr(mod, "apply_function", counted_apply)
    monkeypatch.setattr(density_grid, "_lag_scan", counted_scan)
    monkeypatch.setattr(density_grid, "_scan_rows", counted_rows)
    return counts


@pytest.fixture
def count_work(monkeypatch):
    """Returns a function that starts a start_counting counter for the
    test; calls before the start are not counted."""
    return lambda: start_counting(monkeypatch)


class DriftLog(logging.Handler):
    """Counts each distinct "mass drift" warning logged."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.drifts = collections.Counter()

    def emit(self, record):
        message = record.getMessage()
        if "mass drift" in message:
            self.drifts[message] += 1


@dataclass
class VerifyRun:
    code: int                        # the exit code
    out: Path                        # the directory verify.json went to
    stdout: str
    counts: collections.Counter      # the work counts of start_counting
    drifts: collections.Counter      # times each mass-drift warning was logged

    def results(self) -> list:
        """The AuditResults that verify.json records."""
        report = json.loads((self.out / "verify.json").read_text())
        return [AuditResult(**r) for r in report["results"]]


def run_verify(argv, out: Path) -> VerifyRun:
    """Run ``main(argv)``, a verify writing to ``out``, capturing its
    stdout, its mass-drift warnings and its work counts."""
    logger = logging.getLogger("expcircle")
    log, level = DriftLog(), logger.level
    logger.addHandler(log)
    logger.setLevel(logging.WARNING)
    stdout = io.StringIO()
    try:
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
            counts = start_counting(mp)
            code = main(argv)
    finally:
        logger.removeHandler(log)
        logger.setLevel(level)
    return VerifyRun(code, out, stdout.getvalue(), counts, log.drifts)


DEFAULT_MAP = repr(make_map(RunConfig()))


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """Returns a function of a standard map that gives its whole
    ``verify --trials 20000`` run, made on first use and shared by every
    test that reads it.  The default map runs with no config; every other
    map gets a config.json next to its verify.json."""
    runs = {}

    def run(m) -> VerifyRun:
        label = repr(m)
        if label not in runs:
            out = tmp_path_factory.mktemp("verify")
            if label == DEFAULT_MAP:
                argv = ["verify", "--trials", "20000"]
            else:
                config = out / "config.json"
                config.write_text(json.dumps({
                    "map": {"family": m.family, **dict(zip(("w", "eps"), m.params))},
                    "trials": 20000}))
                argv = ["verify", "--config", str(config)]
            runs[label] = run_verify(argv + ["--out", str(out)], out)
        return runs[label]

    return run
