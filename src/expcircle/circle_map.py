"""Smooth orientation-preserving expanding maps of the unit circle.

A map is carried by its lift F: R -> R with F(x + 1) = F(x) + w and
F' >= lambda > 1.  Two built-in families cover the usual test cases:

* ``linear``     T(x) = w x mod 1
* ``perturbed``  T(x) = w x + eps sin(2 pi x) mod 1, valid while
  2 pi eps < w - 1 so the minimum derivative w - 2 pi eps stays above 1.

Arbitrary lifts enter through :func:`custom_map`, which audits the
asserted constants on a dense sample grid before accepting them.  The
certificate is sampled, not symbolic: smoothness between sample points is
the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificationError, DegreeMismatch, NotExpanding

AUDIT_POINTS = 1 << 16
TWO_PI = 2.0 * np.pi


def wrap(x):
    """Reduce a point (or array) to the fundamental domain [0, 1).

    x - floor(x) rounds once, to the same bits as x % 1.0; it is computed
    in a fresh buffer, so x itself is never written.
    """
    a = np.asarray(x, dtype=float)
    r = np.floor(a, out=np.empty_like(a))
    np.subtract(a, r, out=r)
    # x - floor(x) rounds up to exactly 1.0 for tiny negative x
    r[r >= 1.0] = 0.0
    return float(r) if r.ndim == 0 else r


def circle_distance(x, y):
    """d(x, y) = min(|x - y|, 1 - |x - y|) on representatives in [0, 1)."""
    diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    d = np.minimum(diff, 1.0 - diff)
    return float(d) if d.ndim == 0 else d


def signed_gap(x, y):
    """Signed circular displacement from x to y, in [-1/2, 1/2)."""
    g = (np.asarray(y, dtype=float) - np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True, eq=False)
class ExpandingMap:
    """Uniformly expanding circle map held as a monotone lift.

    ``lam``/``d1_sup``/``d2_sup`` are the certified min T', max T' and
    sup |T''|.  Instances hash by identity, which keys the per-map caches.
    """

    family: str
    winding: int
    lam: float
    d1_sup: float
    d2_sup: float
    lift: Callable
    dlift: Callable
    d2lift: Callable
    params: tuple = ()

    def __repr__(self):
        inside = ",".join(f"{p:g}" for p in self.params)
        return f"{self.family}{{{inside}}}"


def evaluate(m: ExpandingMap, x):
    """T(x) in [0, 1); accepts scalars or arrays."""
    return wrap(m.lift(np.asarray(x, dtype=float)))


def _audit(m: ExpandingMap) -> None:
    """Check the asserted constants against a dense sample of the lift."""
    if m.winding < 2:
        raise DegreeMismatch(f"winding must be >= 2, got {m.winding}")
    # every comparison below is False on NaN
    for name, value in (("lam", m.lam), ("d1_sup", m.d1_sup), ("d2_sup", m.d2_sup)):
        if not np.isfinite(value):
            raise CertificationError(f"{name} must be finite, got {value!r}")
    if m.lam <= 1.0:
        raise NotExpanding(f"expansion constant must exceed 1, got {m.lam}")
    x = np.arange(AUDIT_POINTS) / AUDIT_POINTS
    d1 = m.dlift(x)
    if np.any(d1 < m.lam - 1e-12):
        raise NotExpanding(
            f"min sampled T' = {d1.min():.12g} below asserted lambda = {m.lam:.12g}"
        )
    if np.any(d1 > m.d1_sup + 1e-9):
        raise CertificationError(
            f"max sampled T' = {d1.max():.12g} above asserted bound {m.d1_sup:.12g}"
        )
    d2 = np.abs(m.d2lift(x))
    if np.any(d2 > m.d2_sup + 1e-9):
        raise CertificationError(
            f"max sampled |T''| = {d2.max():.12g} above asserted bound {m.d2_sup:.12g}"
        )
    # degree consistency of the lift, sampled on a coarser subgrid
    xs = x[:: AUDIT_POINTS // 1024]
    inc = m.lift(xs + 1.0) - m.lift(xs)
    if np.any(np.abs(inc - m.winding) > 1e-9):
        raise DegreeMismatch(
            f"lift increment over one period is {inc[np.argmax(np.abs(inc - m.winding))]:.12g},"
            f" expected {m.winding}"
        )


def certify(m: ExpandingMap) -> dict:
    """Re-run the construction audit and return the certified constants."""
    _audit(m)
    return {"lambda": m.lam, "winding": m.winding, "d2_sup": m.d2_sup}


def linear_map(w: int) -> ExpandingMap:
    """T(x) = w x mod 1."""
    w = int(w)
    m = ExpandingMap(
        family="linear",
        winding=w,
        lam=float(w),
        d1_sup=float(w),
        d2_sup=0.0,
        lift=lambda x: w * np.asarray(x, dtype=float),
        dlift=lambda x: np.full_like(np.asarray(x, dtype=float), float(w)),
        d2lift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        params=(w,),
    )
    _audit(m)
    return m


def _perturbed_lift(w: int, eps: float, x):
    """w x + eps sin(2 pi x), built in one buffer; the same bits as the
    textbook expression, since float addition and product commute."""
    x = np.asarray(x, dtype=float)
    out = np.multiply(TWO_PI, x, out=np.empty_like(x))
    np.sin(out, out=out)
    out *= eps
    out += w * x
    return out if out.ndim else out[()]


def perturbed_map(w: int, eps: float) -> ExpandingMap:
    """T(x) = w x + eps sin(2 pi x) mod 1 with eps < (w - 1) / (2 pi)."""
    w = int(w)
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    lam = w - TWO_PI * eps
    if lam <= 1.0:
        raise NotExpanding(
            f"2*pi*eps = {TWO_PI * eps:.6g} must stay below w - 1 = {w - 1}"
        )
    m = ExpandingMap(
        family="perturbed",
        winding=w,
        lam=lam,
        d1_sup=w + TWO_PI * eps,
        d2_sup=TWO_PI ** 2 * eps,
        lift=lambda x: _perturbed_lift(w, eps, x),
        dlift=lambda x: w + TWO_PI * eps * np.cos(TWO_PI * np.asarray(x, dtype=float)),
        d2lift=lambda x: -(TWO_PI ** 2) * eps * np.sin(TWO_PI * np.asarray(x, dtype=float)),
        params=(w, eps),
    )
    _audit(m)
    return m


def custom_map(lift, dlift, d2lift, *, winding: int, lam: float, d2_sup: float,
               d1_sup: float | None = None) -> ExpandingMap:
    """Wrap user-supplied lift callables, auditing the asserted constants.

    When ``d1_sup`` is omitted it is certified from the sampled maximum of
    the derivative (with a relative safety margin).
    """
    if d1_sup is None:
        x = np.arange(AUDIT_POINTS) / AUDIT_POINTS
        d1_sup = float(np.max(dlift(x))) * (1.0 + 1e-12)
    m = ExpandingMap(
        family="custom",
        winding=int(winding),
        lam=float(lam),
        d1_sup=float(d1_sup),
        d2_sup=float(d2_sup),
        lift=lift,
        dlift=dlift,
        d2lift=d2lift,
        params=(int(winding),),
    )
    _audit(m)
    return m
