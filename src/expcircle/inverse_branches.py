"""Inverse-branch machinery: single-step preimages, deep pullbacks, and the
backward-contraction / bounded-distortion audits built on them.

Depth-n preimages are always composed from single-step pullbacks; nothing
here inverts the n-fold composition directly.  Every depth-n caller goes
through ``walk``, which solves each shared path prefix once.  Depth-one
branch i is the monotone piece of the lift whose image covers
[m0 + i, m0 + i + 1) with m0 = ceil(F(0)); equivalently, the arc between
consecutive preimages of the anchor point 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .circle_map import ExpandingMap, circle_distance, signed_gap, wrap
from .errors import ArcViolation, RootFindingFailure

MAX_DEPTH = 12
RESIDUAL_TOL = 1e-12
NEWTON_BUDGET = 80


@dataclass(frozen=True)
class BranchId:
    """Label of a composed inverse branch.

    ``path[k]`` selects the single-step branch applied at pullback step k,
    counted from the point being pulled back (shallowest step first).
    """

    depth: int
    path: tuple

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(int(b) for b in self.path))
        if self.depth != len(self.path):
            raise ValueError(f"depth {self.depth} != len(path) {len(self.path)}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if any(b < 0 for b in self.path):
            raise ValueError("branch indices must be nonnegative")


def branch_ids(winding: int, depth: int):
    """All branch labels of the given depth, in lexicographic path order."""
    if depth < 1 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
    return [BranchId(depth, p) for p in product(range(winding), repeat=depth)]


def _anchor_offset(m: ExpandingMap) -> float:
    f0 = float(np.asarray(m.lift(0.0), dtype=float))
    return float(np.ceil(f0 - 1e-9))


def _solve_lift(m: ExpandingMap, target, lo=0.0, hi=2.0):
    """Solve F(y) = target on [lo, hi]: Newton steps inside a maintained
    bracket, bisection when a step leaves it.  Vectorized over targets."""
    t = np.atleast_1d(np.asarray(target, dtype=float))
    lo = np.full_like(t, lo)
    hi = np.full_like(t, hi)
    if np.any(m.lift(lo) - t > RESIDUAL_TOL) or np.any(m.lift(hi) - t < -RESIDUAL_TOL):
        raise RootFindingFailure("bracket does not enclose the target")
    f0 = float(np.asarray(m.lift(0.0), dtype=float))
    y = np.clip((t - f0) / m.winding, lo, hi)
    for _ in range(NEWTON_BUDGET):
        r = m.lift(y) - t
        done = np.abs(r) <= RESIDUAL_TOL
        if done.all():
            return y
        lo = np.where(~done & (r < 0), y, lo)
        hi = np.where(~done & (r > 0), y, hi)
        cand = y - r / m.dlift(y)
        bad = ~np.isfinite(cand) | (cand < lo) | (cand > hi)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        y = np.where(done, y, cand)
    raise RootFindingFailure(
        f"residual {np.max(np.abs(m.lift(y) - t)):.3e} after {NEWTON_BUDGET} iterations"
    )


def preimages(m: ExpandingMap, x):
    """All single-step preimages of x as (BranchId, point), sorted by point."""
    x = wrap(float(x))
    m0 = _anchor_offset(m)
    y = wrap(_solve_lift(m, m0 + np.arange(m.winding) + x))
    pairs = [(BranchId(1, (i,)), float(y[i])) for i in range(m.winding)]
    pairs.sort(key=lambda p: p[1])
    return pairs


def walk(m: ExpandingMap, bids, x, y=None):
    """Yield ``(bid, us, vs, gaps)`` for every path in ``bids``, in
    lexicographic path order: the backward orbit u_1..u_n of x stacked over
    depth and, given y, the orbit of y and the distances |u_k - v_k| of the
    lifts (else None).

    Only the current path's chain of nodes is held; each path keeps the
    prefix it shares with the previous one and solves only its new steps.
    y is carried as a lifted displacement from x, so both points follow the
    same monotone piece at every step instead of being re-anchored
    independently.
    """
    bids = sorted(bids, key=lambda bid: bid.path)
    for bid in bids:
        if bid.depth > MAX_DEPTH:
            raise ValueError(f"depth {bid.depth} exceeds the cap {MAX_DEPTH}")
        if any(b >= m.winding for b in bid.path):
            raise ValueError(f"path {bid.path} has entries >= winding {m.winding}")
    # index k holds depth k of the current path (u, v, signed lifted gap)
    us, vs, gaps = [np.atleast_1d(np.asarray(wrap(x), dtype=float))], [None], [None]
    if y is not None:
        gaps[0] = np.atleast_1d(np.asarray(signed_gap(x, y), dtype=float))
        if not np.all(np.abs(gaps[0]) <= 0.5):      # also refuses NaN and inf
            raise ArcViolation("pair does not fit in a common arc of length 1/2")
    m0 = _anchor_offset(m)
    prev = ()
    for bid in bids:
        keep = 0
        while keep < min(len(prev), bid.depth) and prev[keep] == bid.path[keep]:
            keep += 1
        del us[keep + 1:], vs[keep + 1:], gaps[keep + 1:]
        for b in bid.path[keep:]:
            tu = m0 + b + us[-1]
            pu = _solve_lift(m, tu)
            us.append(wrap(pu))
            if y is not None:
                pv = _solve_lift(m, tu + gaps[-1], lo=-1.0, hi=3.0)
                vs.append(wrap(pv))
                gaps.append(pv - pu)
        prev = bid.path
        if y is None:
            yield bid, np.stack(us[1:]), None, None
        else:
            yield bid, np.stack(us[1:]), np.stack(vs[1:]), np.abs(np.stack(gaps[1:]))


def pullback(m: ExpandingMap, x, bid: BranchId):
    """Depth-n preimage of x along ``bid``; path[0] acts on x itself."""
    y = pullback_orbit(m, x, bid)[-1]
    return float(y[0]) if np.ndim(x) == 0 else y


def pullback_orbit(m: ExpandingMap, x, bid: BranchId):
    """Backward orbit u_1..u_n of x along ``bid`` (u_k at depth k)."""
    _, orbit, _, _ = next(walk(m, [bid], x))
    return orbit


def branch_contraction_check(m: ExpandingMap, x, y, n: int, bid: BranchId):
    """Audit d(T^-n x, T^-n y) <= lambda^-n d(x, y) along one branch.

    Both points are pulled back along the same arc (endpoint continuation).
    Returns (lhs, rhs, ok) with a 1e-10 numerical slack on ok.
    """
    if n != bid.depth:
        raise ValueError(f"n = {n} does not match branch depth {bid.depth}")
    _, _, _, gaps = next(walk(m, [bid], x, y))
    lhs = gaps[-1]
    rhs = m.lam ** (-n) * np.atleast_1d(circle_distance(x, y))
    ok = bool(np.all(lhs <= rhs + 1e-10))
    if np.ndim(x) == 0:
        return float(lhs[0]), float(rhs[0]), ok
    return lhs, rhs, ok


def distortion_ratio(m: ExpandingMap, x, y, n: int, bid: BranchId):
    """(T^n)'(x_-n) / (T^n)'(y_-n) along one branch, with continuation."""
    if n != bid.depth:
        raise ValueError(f"n = {n} does not match branch depth {bid.depth}")
    _, us, vs, _ = next(walk(m, [bid], x, y))
    ratio = np.prod(m.dlift(us), axis=0) / np.prod(m.dlift(vs), axis=0)
    return float(ratio[0]) if np.ndim(x) == 0 else ratio


def deep_preimages(m: ExpandingMap, x, depth: int):
    """All w^depth preimages of x under the depth-fold composition,
    as (BranchId, point) in lexicographic path order."""
    return [(bid, float(us[-1][0]) if np.ndim(x) == 0 else us[-1])
            for bid, us, _, _ in walk(m, branch_ids(m.winding, depth), x)]


def inverse_weight_sum(m: ExpandingMap, x, depth: int):
    """sum over depth-n branches of 1 / (T^n)' at the branch preimage.

    This is the depth-n transfer of the constant one density, evaluated by
    exhaustive branch enumeration: its node mean is 1 (mass conservation)
    and it equals 1 pointwise exactly when T'' = 0.  Vectorized over base
    points.
    """
    total = 0.0
    for _, orbit, _, _ in walk(m, branch_ids(m.winding, depth), x):
        total += 1.0 / np.prod(m.dlift(orbit), axis=0)
    return float(total[0]) if np.ndim(x) == 0 else total
