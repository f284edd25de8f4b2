"""Uniform periodic grids on the circle.

A grid function is a vector of values at the M equispaced nodes j/M with
piecewise-linear periodic interpolation in between; M is a power of two
(default 4096).  Quadrature is the node mean, which integrates the
periodic linear interpolant exactly.  Grid functions are immutable and
have no arithmetic: callers combine the ``values`` arrays and wrap the
result.  Densities are nonnegative grid functions of unit mean, divided
by their node mean on construction.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InvalidAlpha,
    NonPositiveDensity,
    ResolutionMismatch,
)

DEFAULT_RESOLUTION = 4096


class GridFunction:
    """Real function on the circle stored by its node values."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float, copy=True)
        self._hold(v, finite=bool(np.isfinite(v).all()))

    def _hold(self, v: np.ndarray, *, finite: bool) -> None:
        """Check the float array ``v`` and keep it, read-only and uncopied:
        no one else may hold it.  ``finite`` says whether every value of
        ``v`` is finite."""
        if v.ndim != 1:
            raise ValueError("grid values must be one-dimensional")
        M = v.size
        if M < 8 or M & (M - 1):
            raise ValueError(f"resolution must be a power of two >= 8, got {M}")
        if not finite:
            raise ValueError("grid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("grid functions are immutable")

    @property
    def resolution(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.resolution) / self.resolution

    def evaluate(self, x):
        """Piecewise-linear periodic interpolation; exact at nodes."""
        M = self.resolution
        u = (np.asarray(x, dtype=float) % 1.0) * M
        j = np.floor(u).astype(np.int64)
        t = u - j
        j %= M
        out = self.values[j] * (1.0 - t) + self.values[(j + 1) % M] * t
        return float(out) if np.ndim(x) == 0 else out

    def __repr__(self):
        return f"{type(self).__name__}(M={self.resolution})"


class GridDensity(GridFunction):
    """Nonnegative grid function of unit node mean: the values given are
    divided by their node mean."""

    __slots__ = ()

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        self._normalize(v, float(v.mean()) if v.size else 0.0)

    def _normalize(self, v: np.ndarray, mean: float) -> None:
        """Check the float array ``v`` and hold v / mean, where ``mean`` is
        float(v.mean()), the rounded node mean."""
        lo, hi = (float(v.min()), float(v.max())) if v.size else (0.0, 0.0)
        if lo < 0.0:
            raise NonPositiveDensity(f"density has negative node value {lo:.6g}")
        # The exact node mean lies in [min, max] but the rounded one can miss
        # it (a constant vector need not sum exactly).  Pinned back, it makes
        # every density straddle 1, and a constant one exactly 1, as unit
        # mass implies.
        mean = min(max(mean, lo), hi) if v.size else 0.0
        if mean <= 0.0:
            raise NonPositiveDensity("density has zero total mass")
        v = v / mean
        # A NaN shows in min and max, an infinity in one of them.  Finite
        # values keep v / mean finite: the node sum of nonnegative floats is
        # at least their max, so mean >= max / M.
        self._hold(v, finite=math.isfinite(lo) and math.isfinite(hi))


def _owned(values: np.ndarray) -> GridFunction:
    """A GridFunction holding ``values``, a fresh float64 array that no one
    else holds, checked and frozen in place instead of copied."""
    f = object.__new__(GridFunction)
    f._hold(values, finite=bool(np.isfinite(values).all()))
    return f


def _density(values: np.ndarray, mean: float) -> GridDensity:
    """GridDensity(values) for a float array whose node mean,
    float(values.mean()), the caller has already taken as ``mean``."""
    d = object.__new__(GridDensity)
    d._normalize(values, mean)
    return d


def uniform_density(resolution: int = DEFAULT_RESOLUTION) -> GridDensity:
    return GridDensity(np.ones(resolution))


def _same_resolution(f: GridFunction, g: GridFunction) -> None:
    if f.resolution != g.resolution:
        raise ResolutionMismatch(f"{f.resolution} vs {g.resolution}")


def integrate(f: GridFunction) -> float:
    """Node mean = exact integral of the periodic linear interpolant."""
    return float(f.values.mean())


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    _same_resolution(f, g)
    return float(np.abs(f.values - g.values).mean())


def sup_norm(f: GridFunction) -> float:
    return float(np.abs(f.values).max())


def inf_value(f: GridFunction) -> float:
    return float(f.values.min())


def lipschitz_estimate(f: GridFunction) -> float:
    """Max adjacent-node slope: the exact Lipschitz constant (= H_1) of the
    grid function, since by the triangle inequality along the shorter arc
    no node pair has a steeper chord."""
    d = np.abs(np.diff(f.values, append=f.values[:1]))
    return float(d.max() * f.resolution)


def log_transform(psi: GridFunction) -> GridFunction:
    if float(psi.values.min()) <= 0.0:
        raise NonPositiveDensity(
            f"log requires strictly positive values, min = {psi.values.min():.6g}"
        )
    return GridFunction(np.log(psi.values))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _line_aligned(n: int) -> np.ndarray:
    """An uninitialized float array of n elements starting on a 64-byte
    cache-line boundary.  malloc aligns to 16 bytes only, and a scan that
    stores into rows straddling cache lines runs up to 1.6x slower."""
    raw = np.empty(n + 7)
    skip = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[skip:skip + n]


def _scan_rows(rows, v, buf, out) -> None:
    """out[i] = max_j |rows[i, j] - v[j]|, through the (len(rows), M)
    scratch ``buf``: rows of the sliding window over the wrapped values are
    f rolled by their lags, so this is the largest gap of each lag."""
    work = buf[:len(rows)]
    np.subtract(rows, v, out=work)
    np.abs(work, out=work)
    work.max(axis=1, out=out)


def _lag_scan(f: GridFunction, alphas: tuple, osc: float, lip: float,
              near=None) -> tuple:
    """(sups, env): sups[i] is the exact max over lags l = 1..M/2 of
    gap_l / d_l^alpha for alpha = alphas[i] (all < 1), where gap_l is the
    largest float |f_j - f_k| over node pairs at distance d_l = l/M and
    ``osc``, ``lip`` are max - min and lipschitz_estimate of f.  env is a
    per-lag upper bound on those gaps, length M/2: the gap itself at a
    scanned lag, cap_l elsewhere.  ``near`` is None or the (values, env)
    of another grid function g at the same M, which tightens cap_l.

    Every float gap at lag l is at most cap_l = min(osc, lip d_l)(1 + 1e-12):
    rounding is monotone, so no gap exceeds the rounded max - min, and by the
    triangle inequality along the shorter arc no gap exceeds lip d_l by more
    than a few ulps, which the factor covers.  With ``near``, cap_l is also
    at most (env_g,l + 2 delta)(1 + 1e-12), delta = max |f - g| in floats.
    Proof, with u = 2**-53: a float difference, and a float sum of
    nonnegative terms, is the exact one times (1 + e), |e| <= u, and is
    exact when it is subnormal; abs, max and the doubling of delta are
    exact.  So a true node gap of g is at most env_g,l / (1 - u), the true
    max |f - g| is at most delta / (1 - u), and by the triangle inequality
    a float gap of f is at most (1 + u)/(1 - u) (env_g,l + 2 delta), which
    is at most (1 + u)/(1 - u)**2 s < (1 + 3.1u) s, with s the float sum.
    The float product s * fl(1 + 1e-12) is at least
    s (1 + 1e-12 - u)(1 - u) > (1 + 4u) s.  If s is subnormal, so are the
    terms it was summed from and every gap they bound; then each of those
    operations was exact, and the gaps of f are at most s itself.  So no
    float gap of f exceeds the new cap_l.  (An overflow to inf leaves
    cap_l as it was.)

    For each alpha the lags are visited 16 at a time, in decreasing order
    of the block's largest cap_l / d_l^alpha, until that bound drops below
    the best quotient found so far: no later block can hold the maximum.
    A block is scanned once and serves every alpha.  Quotients divide by
    the same float d_l^alpha as a scan of every lag, so the maximum is the
    same float, whatever g is: a closer g only skips more blocks.
    """
    v = f.values
    M = f.resolution
    half = M // 2
    dists = np.arange(1, half + 1) / M
    starts = np.arange(0, half, 16)
    cap = np.minimum(osc, lip * dists) * (1.0 + 1e-12)
    if near is not None:
        g, env_g = near
        delta = float(np.abs(v - g).max())
        np.minimum(cap, (env_g + 2.0 * delta) * (1.0 + 1e-12), out=cap)
    wrapped = _line_aligned(M + half)
    wrapped[:M] = v
    wrapped[M:] = v[:half]
    v = wrapped[:M]
    rolled = sliding_window_view(wrapped, M)[1:]
    buf = _line_aligned(16 * M).reshape(16, M)
    gaps = np.zeros(half)
    scanned = [False] * len(starts)
    sups = []
    for a in alphas:
        power = dists ** a
        bounds = np.maximum.reduceat(cap / power, starts)
        # a block's largest gap over its largest power is a lower bound on
        # its largest quotient
        floors = np.maximum.reduceat(power, starts)
        order = np.argsort(-bounds, kind="stable")
        best = float((gaps / power).max())     # the blocks scanned so far
        for b, bound, floor in zip(order.tolist(), bounds[order].tolist(),
                                   floors[order].tolist()):
            if bound < best:
                break
            if not scanned[b]:
                scanned[b] = True
                s = 16 * b
                out = gaps[s:s + 16]
                _scan_rows(rolled[s:s + 16], v, buf, out)
                best = max(best, max(out.tolist()) / floor)
        sups.append(float((gaps / power).max()))
    env = np.where(np.repeat(scanned, 16)[:half], gaps, cap)
    return sups, env


def holder_profiles(fs, alphas):
    """Yield holder_profile(f, alphas) for each grid function f of the
    iterable ``fs`` in turn, each the same floats as a lone call.

    Each lag scan is handed the previous scan's function and gap envelope
    (see _lag_scan), which bounds this f's gaps to within twice their sup
    distance.  Along an orbit L^n psi, neighbouring iterates soon differ by
    rounding alone, so most blocks of lags are skipped without a scan: the
    31 iterates n = 0..30 of a density at M = 4096 under perturbed{2,0.05}
    took 22-29 ms chained against 87-92 ms as lone profiles, the same for
    their logs (see the README).  A function at another M than the last
    scan starts afresh, and a constant or an alpha = 1 profile scans
    nothing.
    """
    alphas = tuple(_check_alpha(a) for a in alphas)
    low = tuple(dict.fromkeys(a for a in alphas if a < 1.0))
    near = None
    for f in fs:
        lip = lipschitz_estimate(f)
        osc = float(f.values.max() - f.values.min())
        sups = dict.fromkeys(low, 0.0)
        if low and osc > 0.0:
            if near is not None and near[0].size != f.resolution:
                near = None
            found, env = _lag_scan(f, low, osc, lip, near)
            sups = dict(zip(low, found))
            near = (f.values, env)
        yield tuple(lip if a == 1.0 else sups[a] for a in alphas)


def holder_profile(f: GridFunction, alphas) -> tuple:
    """holder_coefficient for several alphas from a single lag scan: the
    one-function case of holder_profiles.

    alpha = 1 needs no scan: it is lipschitz_estimate(f), and a constant f
    has coefficient 0 at every alpha.  For alpha < 1 the scan (_lag_scan)
    skips every block of lags that a closed-form bound shows cannot hold the
    supremum; the result is the same float as a scan of every lag.  Its
    worst case, a supremum at the antipodal lag, still visits every lag and
    costs O(M^2): about 5 ms at M = 4096, 0.12 s at M = 16384 and 2.2 s at
    M = 65536 (see the README for the measurement).
    """
    return next(holder_profiles((f,), alphas))


def holder_coefficient(f: GridFunction, alpha: float) -> float:
    """Hoelder coefficient sup |f(x)-f(y)| / d(x,y)^alpha over node pairs,
    exact: every pair is compared (see holder_profile for the cost)."""
    return holder_profile(f, (alpha,))[0]


def _cell_masses(psi: GridDensity) -> np.ndarray:
    """Trapezoid mass of each cell [i/M, (i+1)/M): the law sample draws
    from, and the one a test of its draws must bin."""
    v = psi.values
    return (v + np.roll(v, -1)) / (2.0 * psi.resolution)


# Advance rounds that sample makes from its guide table before it searches
# for the draws still unresolved.
GUIDE_ROUNDS = 4


def sample(psi: GridDensity, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` points from the density via inverse-CDF with linear
    interpolation of the cumulative cell masses (trapezoid mass per cell,
    uniform within).

    A draw u falls in cell j, the last CDF index with cum[j] <= u, which
    is np.searchsorted(cum, u, side="right") - 1.  A guide table gives a
    start for it: start[k], the last CDF index at or below k/M, is at most
    j for every u in [k/M, (k+1)/M), since u * M is exact.  As the CDF is
    nondecreasing, j is then start[k] advanced while cum[j + 1] <= u.  Each
    round advances every draw at once, and on a density of moderate
    maximum a round or two resolve them all.  After GUIDE_ROUNDS rounds
    the draws still unresolved are searched, so that a CDF that crawls for
    many cells (a density near 0 on half the circle) costs no round per
    cell.  Each cell index, and so each point, is the searched one, bit
    for bit."""
    M = psi.resolution
    masses = _cell_masses(psi)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    if total <= 0.0:
        raise NonPositiveDensity("cannot sample from zero mass")
    cum /= total
    cum[-1] = 1.0
    right = cum[1:]                     # the CDF at each cell's right end
    start = np.searchsorted(cum, np.arange(M) / M, side="right")
    start -= 1
    u = rng.random(size)
    j = start[(u * M).astype(np.intp)]
    for _ in range(GUIDE_ROUNDS):
        step = right[j] <= u
        if not step.any():
            break
        j += step
    else:                               # still moving after every round
        moving = np.flatnonzero(right[j] <= u)
        j[moving] = np.searchsorted(cum, u[moving], side="right") - 1
    cell = masses[j]
    cell /= total
    # the fraction of the cell below u, 0 in a cell of no mass
    frac = np.subtract(u, cum[j], out=u)
    mass = cell > 0
    np.divide(frac, cell, out=frac, where=mass)
    frac[~mass] = 0.0
    frac += j
    frac /= M
    frac[frac >= 1.0] = 0.0
    return frac
