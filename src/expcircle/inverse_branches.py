"""Inverse-branch machinery: the single-step root solve and the pullback tree.

Depth-n preimages are always composed from single-step pullbacks; nothing
here inverts the n-fold composition directly.  Every depth-n caller goes
through ``walk``, which solves each node of the path tree once: all the
children it needs, and both points of a pair, in one vectorized call.
Depth-one branch i is the monotone piece of the lift whose image covers
[m0 + i, m0 + i + 1) with m0 from ``_anchor_offset``; equivalently, the arc
between consecutive preimages of the anchor point 0.  A depth-n path is a
plain tuple of n branch indices: path[k] selects the single-step branch
applied at pullback step k, counted from the point being pulled back
(shallowest step first).
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .circle_map import ExpandingMap, signed_gap, wrap
from .errors import ArcViolation, RootFindingFailure

MAX_DEPTH = 12
# Newton stops a point once |F(y) - t| <= max(RESIDUAL_TOL, RESIDUAL_ULPS *
# spacing(t)): F(y) - t is then a multiple of t's float spacing, which
# passes 1e-12 from |t| = 8192 on, and a step of y moves F(y) by about
# w * spacing(y).  2 is the least factor with which the winding-20000 maps
# converge; below |t| = 4096 the fixed 1e-12 rules and no bit moves.
RESIDUAL_TOL = 1e-12
RESIDUAL_ULPS = 2
NEWTON_BUDGET = 80


def _residual_tol(t):
    """The stop rule's bound on |F(y) - t| at target t."""
    return np.maximum(RESIDUAL_TOL, RESIDUAL_ULPS * np.spacing(np.abs(t)))


def _anchor_offset(m: ExpandingMap) -> float:
    """m0 = ceil(F(0) - the stop rule's bound): branch 0's first target."""
    f0 = float(np.asarray(m.lift(0.0), dtype=float))
    return float(np.ceil(f0 - _residual_tol(f0)))


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
    tol = _residual_tol(t)
    # one lift per bracket end, however many targets share it
    if np.any(m.lift(lo) - t > tol) or np.any(m.lift(hi) - t < -tol):
        raise RootFindingFailure("bracket does not enclose the target")
    f0 = float(np.asarray(m.lift(0.0), dtype=float))
    y = np.clip((t - f0) / m.winding, lo, hi)
    for _ in range(NEWTON_BUDGET):
        r = m.lift(y) - t
        done = np.abs(r) <= tol
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


class Pullback(NamedTuple):
    """One path's end in ``walk``: its depth-n preimages and the derivative
    products along it."""

    path: tuple                     # the branch indices, shallowest first
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


def _checked(path, winding: int) -> tuple:
    """``path`` as a tuple of ints; ValueError unless it has 1..MAX_DEPTH
    entries, each an integer in [0, winding)."""
    try:
        path = tuple(operator.index(b) for b in path)
    except TypeError:
        raise ValueError(f"path {path!r} is not a tuple of integers") from None
    if not 1 <= len(path) <= MAX_DEPTH:
        raise ValueError(f"path {path} has depth {len(path)}, outside 1..{MAX_DEPTH}")
    if not all(0 <= b < winding for b in path):
        raise ValueError(f"path {path} has entries outside [0, {winding})")
    return path


def walk(m: ExpandingMap, paths, x, y=None):
    """Yield a ``Pullback`` for every path in ``paths``, in lexicographic
    order: the depth-n preimage u_n of x and (T^n)'(u_n) and, given y, the
    same for y with the distance |u_n - v_n| of the lifts.  A path is a
    tuple of branch indices; every path is checked before anything is
    solved.

    The paths form a tree walked depth first.  At each node one root solve
    takes every child branch some path needs, and both points of a pair,
    so each prefix is solved once.  The derivative products are carried
    down the tree, multiplied in the order of ``np.prod`` over the stacked
    orbit, so they have its bits.  Only the chain from the root to the
    current node (and its pending siblings) is held.  y is carried as a lifted
    displacement from x, so both points follow the same monotone piece at
    every step instead of being re-anchored independently.
    """
    ends, below = {}, {}        # path -> times asked; path -> the branches below it
    for p in paths:
        path = _checked(p, m.winding)
        ends[path] = ends.get(path, 0) + 1
        for k, b in enumerate(path):
            below.setdefault(path[:k], set()).add(b)
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
        for _ in range(ends.get(node.path, 0)):
            yield _pullback(node)
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


def _pullback(node: _Node) -> Pullback:
    pts, gap, prod = node.pts, node.gap, node.prod
    pair = () if gap is None else (pts[1], prod[1], np.abs(gap))
    return Pullback(node.path, pts[0], prod[0], *pair)

