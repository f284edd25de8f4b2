import collections
import sys

import numpy as np
import pytest

from expcircle import (density_grid, invariant_density, linear_map, perturbed_map,
                       transfer_operator)

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
