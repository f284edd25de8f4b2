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


@pytest.fixture
def count_work(monkeypatch):
    """Starts a counter of operator applications ("apply") and all-lag
    Hoelder scans ("scan"), with apply_function wrapped in every expcircle
    namespace that bound it, and returns it; calls before the start are not
    counted."""
    def start() -> collections.Counter:
        counts = collections.Counter()
        apply_function = transfer_operator.apply_function
        gap_profile = density_grid._gap_profile

        def counted_apply(m, f):
            counts["apply"] += 1
            return apply_function(m, f)

        def counted_scan(f):
            counts["scan"] += 1
            return gap_profile(f)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("expcircle")
                    and getattr(mod, "apply_function", None) is apply_function):
                monkeypatch.setattr(mod, "apply_function", counted_apply)
        monkeypatch.setattr(density_grid, "_gap_profile", counted_scan)
        return counts

    return start
