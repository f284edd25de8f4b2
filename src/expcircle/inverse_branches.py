"""Inverse-branch machinery: single-step preimages and the pullback tree.

Depth-n preimages are always composed from single-step pullbacks; nothing
here inverts the n-fold composition directly.  Every depth-n caller goes
through ``walk``, which solves each node of the path tree once: all the
children it needs, and both points of a pair, in one vectorized call.
Depth-one branch i is the monotone piece of the lift whose image covers
[m0 + i, m0 + i + 1) with m0 = ceil(F(0)); equivalently, the arc between
consecutive preimages of the anchor point 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .circle_map import ExpandingMap, signed_gap, wrap
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
    bracket, bisection when a step leaves it.  Vectorized over targets;
    ``lo`` and ``hi`` are scalars or arrays that broadcast against them.

    Each point runs its own iteration: once its residual is within
    tolerance it never moves again, so its root has the same bits whatever
    other targets share the call.
    """
    t = np.atleast_1d(np.asarray(target, dtype=float))
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # one lift per bracket end, however many targets share it
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


class Pullback(NamedTuple):
    """One path's end in ``walk``: its depth-n preimages and the derivative
    products along it."""

    bid: BranchId
    u: np.ndarray                   # u_n, the depth-n preimage of x
    du: np.ndarray                  # (T^n)'(u_n) = T'(u_1) ... T'(u_n)
    v: np.ndarray | None = None     # v_n, given y
    dv: np.ndarray | None = None    # (T^n)'(v_n), given y
    gap: np.ndarray | None = None   # |u_n - v_n| of the lifts, given y


class _Node(NamedTuple):
    """A node of ``walk``'s tree: the points u (and v) reached along
    ``path``, their signed lifted gap and their derivative products."""

    path: tuple
    pts: np.ndarray                 # (rows, N): u, and v given y
    gap: np.ndarray | None
    prod: np.ndarray                # (rows, N), or (rows, 1) of ones at the root


# Brackets of the u and the v targets; v's is wider because it is reached
# from u's lift by a displacement of up to 1/2.
_LO = np.array([0.0, -1.0]).reshape(2, 1, 1)
_HI = np.array([2.0, 3.0]).reshape(2, 1, 1)


def walk(m: ExpandingMap, bids, x, y=None):
    """Yield a ``Pullback`` for every path in ``bids``, in lexicographic
    path order: the depth-n preimage u_n of x and (T^n)'(u_n) and, given y,
    the same for y with the distance |u_n - v_n| of the lifts.

    The paths form a tree walked depth first.  At each node one root solve
    takes every child branch some path needs, and both points of a pair,
    so each prefix is solved once.  The derivative products are carried
    down the tree, multiplied in the order of ``np.prod`` over the stacked
    orbit, so they have its bits.  Only the chain from the root to the
    current node (and its pending siblings) is held.  y is carried as a lifted
    displacement from x, so both points follow the same monotone piece at
    every step instead of being re-anchored independently.
    """
    bids = sorted(bids, key=lambda bid: bid.path)
    for bid in bids:
        if bid.depth > MAX_DEPTH:
            raise ValueError(f"depth {bid.depth} exceeds the cap {MAX_DEPTH}")
        if any(b >= m.winding for b in bid.path):
            raise ValueError(f"path {bid.path} has entries >= winding {m.winding}")
    ends, below = {}, {}        # path -> its bids; path -> the branches below it
    for bid in bids:
        ends.setdefault(bid.path, []).append(bid)
        for k, b in enumerate(bid.path):
            below.setdefault(bid.path[:k], set()).add(b)
    u = np.atleast_1d(np.asarray(wrap(x), dtype=float))
    gap = None
    if y is not None:
        gap = np.atleast_1d(np.asarray(signed_gap(x, y), dtype=float))
        if not np.all(np.abs(gap) <= 0.5):      # also refuses NaN and inf
            raise ArcViolation("pair does not fit in a common arc of length 1/2")
        u, gap = np.broadcast_arrays(u, gap)
    rows = 1 if y is None else 2
    lo, hi = _LO[:rows], _HI[:rows]
    m0 = _anchor_offset(m)
    # the root's v is never read, only its gap
    stack = [_Node((), u[None], gap, np.ones((rows, 1)))]
    while stack:
        node = stack.pop()
        for bid in ends.get(node.path, ()):
            yield _pullback(bid, node)
        kids = sorted(below.get(node.path, ()))
        if not kids:
            continue
        tu = (m0 + np.array(kids, dtype=float))[:, None] + node.pts[0]
        t = tu[None] if y is None else np.stack([tu, tu + node.gap])
        p = _solve_lift(m, t, lo, hi)
        pts = wrap(p)
        prod = node.prod[:, None] * m.dlift(pts)
        gap = None if y is None else p[1] - p[0]
        for i in reversed(range(len(kids))):
            stack.append(_Node(node.path + (kids[i],), pts[:, i],
                               None if gap is None else gap[i], prod[:, i]))


def _pullback(bid: BranchId, node: _Node) -> Pullback:
    pts, gap, prod = node.pts, node.gap, node.prod
    if gap is None:
        return Pullback(bid, pts[0], prod[0])
    return Pullback(bid, pts[0], prod[0], pts[1], prod[1], np.abs(gap))


def inverse_weight_sum(m: ExpandingMap, x, depth: int):
    """sum over depth-n branches of 1 / (T^n)' at the branch preimage.

    This is the depth-n transfer of the constant one density, evaluated by
    exhaustive branch enumeration: its node mean is 1 (mass conservation)
    and it equals 1 pointwise exactly when T'' = 0.  Vectorized over base
    points; the branches are summed in lexicographic path order.
    """
    total = 0.0
    for end in walk(m, branch_ids(m.winding, depth), x):
        total += 1.0 / end.du
    return float(total[0]) if np.ndim(x) == 0 else total
