"""Correlation decay against the invariant density, driven through the
operator route:

    corr_n(f, g) = int f . L^n(g phi) dm - (int f phi dm)(int g phi dm).

Pushing g phi forward avoids composing observables with T^n on the grid,
which aliases once n log(lambda) exceeds log(M).  The signed product
g phi flows through the raw operator (no renormalization).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circle_map import ExpandingMap
from .density_grid import (
    GridDensity,
    GridFunction,
    holder_profile,
    integrate,
    l1_distance,
    sup_norm,
)
from .errors import NotInvariant, ZeroObservable
from .system_constants import ConstantsLedger, compute_ledger
from .transfer_operator import apply_function, cached_invariant, orbit

INVARIANCE_TOL = 1e-10
BOUND_SLACK = 1e-9
# The reduction check's margin, which also sets how far decay_report walks
# psi_g.  It covers what the side term does not, the float floor of corr_n:
# corr_n is a difference of grid integrals of size sup|f| sup|g|, so once the
# curve has decayed it sits at rounding level while ||L^n psi_g - phi||_1 can
# round to 0.  Over audit_correlation_decay's observables on the five
# standard maps at M = 1024 and 4096, n <= 60, |corr_n| exceeds 3 sup|f|
# sup|g| times the side term by at most 9.5e-14.  No bound is derived: 1e-8
# is a bare margin.
REDUCTION_SLACK = 1e-8
CONVERGENCE_SLACK = 1e-8
EARLY_STOP = 1e-14
DEFAULT_N_MAX = 60      # the step horizon of a decay or convergence run


def _check_invariant(m: ExpandingMap, phi: GridDensity) -> None:
    """phi is the fixed point of the renormalized step, so it is measured
    against the raw image divided by its node mean: the step ``apply``
    takes, without its drift log.  On a coarse grid the raw image's own
    mass drift can exceed the tolerance."""
    moved = l1_distance(GridDensity(apply_function(m, phi).values), phi)
    if moved > INVARIANCE_TOL:
        raise NotInvariant(f"||L phi - phi||_1 = {moved:.3e} exceeds {INVARIANCE_TOL}")


def correlation_series(
    m: ExpandingMap,
    phi: GridDensity,
    fs: list[GridFunction],
    g: GridFunction,
    n_max: int,
) -> np.ndarray:
    """corr_0..corr_n_max for every f in ``fs``, one row each, from one
    forward sweep of L on g phi.

    corr_n = int f L^n(g phi) dm - (int f phi dm)(int L^n(g phi) dm); the
    last factor equals int g phi dm in exact arithmetic (mass is
    conserved), but is taken from the evolved function so that the grid's
    one-time interpolation error on non-smooth g cancels instead of
    persisting as a constant offset.
    """
    _check_invariant(m, phi)
    mean_f = [integrate(GridFunction(f.values * phi.values)) for f in fs]
    out = np.empty((len(fs), n_max + 1))
    steps = itertools.islice(orbit(m, GridFunction(g.values * phi.values)), n_max + 1)
    for n, cur in enumerate(steps):
        mass = integrate(cur)
        for i, f in enumerate(fs):
            out[i, n] = integrate(GridFunction(f.values * cur.values)) - mean_f[i] * mass
    return out


def normalized_observable_density(g: GridFunction, phi: GridDensity) -> GridDensity:
    """phi (g + 2 sup|g|) / (int g dmu + 2 sup|g|): the unit-mass density
    that reduces correlation decay to density convergence."""
    s = sup_norm(g)
    if s == 0.0:
        raise ZeroObservable("observable is identically zero")
    mu_g = integrate(GridFunction(g.values * phi.values))
    return GridDensity(phi.values * (g.values + 2.0 * s) / (mu_g + 2.0 * s))


@dataclass
class DecayReport:
    map_label: str
    alpha: float
    ledger: ConstantsLedger
    f_sup: float
    g_sup: float
    g_holder: float
    ns: np.ndarray
    corr: np.ndarray
    bound: np.ndarray
    ok: np.ndarray
    reduction_bound: np.ndarray     # 3 sup|f| sup|g| ||L^n psi_g - phi||_1
    reduction_ok: np.ndarray
    fitted_rate: float              # NaN where no curve is left to fit
    side_l1: np.ndarray     # ||L^n psi_g - phi||_1 for n = 0..need (see decay_report)

    def all_ok(self) -> bool:
        return bool(np.all(self.ok) and np.all(self.reduction_ok))

    def summary(self) -> dict:
        return {
            "map": self.map_label,
            "alpha": self.alpha,
            "f_sup": self.f_sup,
            "g_sup": self.g_sup,
            "g_holder": self.g_holder,
            "fitted_rate": None if math.isnan(self.fitted_rate) else self.fitted_rate,
            "theta_paper": self.ledger.theta_paper,
            "all_ok": self.all_ok(),
            "ledger": self.ledger.to_dict(),
        }


def _fitted_rate(ns: np.ndarray, corr: np.ndarray) -> float:
    """Per-step factor exp(slope) of a log-linear fit of |corr_n|."""
    mask = np.abs(corr) > 1e-12
    if mask.sum() < 3:
        return float("nan")
    slope = np.polyfit(ns[mask], np.log(np.abs(corr[mask])), 1)[0]
    return float(math.exp(slope))


def decay_report(
    m: ExpandingMap,
    fs: list[GridFunction],
    g: GridFunction,
    alphas,
    *,
    n_max: int = DEFAULT_N_MAX,
    full_side_walk: bool = False,
) -> list[list[DecayReport]]:
    """Per alpha in ``alphas`` and f in ``fs``, indexed [alpha][f], the
    correlation curve with the explicit envelope
    C sup|f| (sup|g| + H_alpha(g)) theta_paper^(alpha n), audited per step,
    plus the reduction route through the normalized observable density.
    A curve stops early once it and its envelope drop below 1e-14.  Every
    report reads one walk of g phi, one Hoelder profile of g and one walk
    of the normalized density psi_g; phi is the map's cached_invariant at
    g's resolution.

    The reduction check |corr_n| <= 3 sup|f| sup|g| ||L^n psi_g - phi||_1
    + REDUCTION_SLACK holds whatever the side term is wherever |corr_n| is
    at most the slack, so psi_g is walked only to ``need``, the last n of
    any curve with |corr_n| above it, and the side term is read as 0 past
    ``need``: the same booleans as a whole walk, and a NaN corr still
    fails.  ``full_side_walk=True`` walks psi_g as far as the longest curve
    instead, for a caller that reads psi_g's own convergence."""
    ledgers = [compute_ledger(m, a) for a in alphas]
    phi, _ = cached_invariant(m, g.resolution)
    g_sup = sup_norm(g)
    g_hs = holder_profile(g, alphas)
    corr = correlation_series(m, phi, fs, g, n_max)
    curves = []
    for led, g_h in zip(ledgers, g_hs):
        for f, row in zip(fs, corr):
            f_sup = sup_norm(f)
            prefactor = led.c_corr * f_sup * (g_sup + g_h)
            # Python ** per n: numpy's vector power differs in the last bit in 542 of
            # 13,545 (map, alpha, n) cases on the five standard maps, changing decay.csv.
            bound = []
            for n in range(n_max + 1):
                bound.append(prefactor * led.theta_paper ** (led.alpha * n))
                if abs(row[n]) < EARLY_STOP and bound[-1] < EARLY_STOP:
                    break
            curves.append((led, g_h, f_sup, row, np.array(bound)))
    longest = max(c[-1].size for c in curves)
    if full_side_walk:
        need = longest - 1
    else:
        need = max(int(np.flatnonzero(np.abs(row[:bound.size]) > REDUCTION_SLACK)
                       .max(initial=-1)) for *_, row, bound in curves)
    side_err = _l1_errors(orbit(m, normalized_observable_density(g, phi)), phi, need)
    side = np.pad(side_err, (0, longest - side_err.size))
    reports = []
    for led, g_h, f_sup, row, bound in curves:
        ns = np.arange(bound.size)
        c = row[:bound.size]
        red = 3.0 * g_sup * f_sup * side[:bound.size]
        reports.append(DecayReport(
            map_label=repr(m),
            alpha=led.alpha,
            ledger=led,
            f_sup=f_sup,
            g_sup=g_sup,
            g_holder=g_h,
            ns=ns,
            corr=c,
            bound=bound,
            ok=np.abs(c) <= bound + BOUND_SLACK,
            reduction_bound=red,
            reduction_ok=np.abs(c) <= red + REDUCTION_SLACK,
            fitted_rate=_fitted_rate(ns, c),
            side_l1=side_err,
        ))
    return [reports[i:i + len(fs)] for i in range(0, len(reports), len(fs))]


@dataclass
class ConvergenceReport:
    alpha: float
    psi_holder: float
    ns: np.ndarray
    l1_err: np.ndarray
    bound: np.ndarray
    ok: np.ndarray

    def all_ok(self) -> bool:
        return bool(np.all(self.ok))


def _l1_errors(psi_orbit, phi: GridDensity, n_max: int) -> np.ndarray:
    """||L^n psi - phi||_1 for n = 0..n_max, read from ``psi_orbit``, the
    ``orbit`` of psi; the caller keeps psi only if it needs it."""
    return np.array([l1_distance(cur, phi)
                     for cur in itertools.islice(psi_orbit, n_max + 1)])


def density_convergence_report(
    m: ExpandingMap,
    psi: GridDensity,
    alphas,
    *,
    n_max: int = DEFAULT_N_MAX,
) -> list[ConvergenceReport]:
    """||L^n psi - phi||_1 against 8 (1 + H_alpha(psi)) theta_paper^(alpha n),
    one report per alpha in ``alphas``, from one walk of L and one Hoelder
    profile of psi; phi is the map's cached_invariant at psi's resolution."""
    ledgers = [compute_ledger(m, a) for a in alphas]
    phi, _ = cached_invariant(m, psi.resolution)
    return convergence_reports(psi, _l1_errors(orbit(m, psi), phi, n_max), ledgers)


def convergence_reports(psi: GridDensity, err: np.ndarray,
                        ledgers) -> list[ConvergenceReport]:
    """One walk's errors ``err``, ||L^n psi - phi||_1 for n = 0, 1, ..., against
    8 (1 + H_alpha(psi)) theta_paper^(alpha n), one report per ledger."""
    ns = np.arange(err.size)
    hs = holder_profile(psi, [led.alpha for led in ledgers])
    reports = []
    for led, h in zip(ledgers, hs):
        bound = led.d_tilde * (1.0 + h) * led.theta_paper ** (led.alpha * ns)
        reports.append(ConvergenceReport(
            alpha=led.alpha,
            psi_holder=h,
            ns=ns,
            l1_err=err,
            bound=bound,
            ok=err <= bound + CONVERGENCE_SLACK,
        ))
    return reports
