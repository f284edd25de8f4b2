"""Transfer operator of an expanding circle map acting on grid functions:

    (L u)(x) = sum over the w preimages y of x of  u(y) / T'(y).

Between nodes u is evaluated with a 4-point Lagrange stencil.  Per (map,
resolution) the node preimages are solved once and the stencil is stored
as a sparse matrix E of shape (w*M, M), four weights per row, together
with the (w, M) weights 1/T'; the pair lives as long as its map.  An
application is then one product E u, clamped at zero when the input is
nonnegative so positivity survives exactly, and a weighted sum over the
w branches.  The grid representation and all norms stay piecewise-linear;
the higher-order stencil is confined to this module because the linear
one plateaus near 1e-6 on node-level operator identities (mass
conservation, exact trigonometric pushforwards) that are audited at the
1e-10 scale.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .circle_map import ExpandingMap
from .density_grid import (
    GridDensity,
    GridFunction,
    inf_value,
    integrate,
    l1_distance,
    sup_norm,
    uniform_density,
)
from .errors import NoConvergence
from .inverse_branches import _anchor_offset, _solve_lift
from .system_constants import compute_ledger
from . import density_grid

DRIFT_WARN = density_grid.DRIFT_WARN
logger = density_grid.logger


# Per-map operators, keyed by resolution; an entry lives as long as its map.
# The lock makes callers applying one map from several threads share a
# single build.
_OPERATORS: "weakref.WeakKeyDictionary[ExpandingMap, dict]" = weakref.WeakKeyDictionary()
_OPERATORS_LOCK = threading.Lock()


def _build_operator(m: ExpandingMap, resolution: int):
    """(E, wgt): E is the (winding*M, M) CSR matrix whose row b*M + i holds
    the 4-point Lagrange weights of node i's preimage under branch b, in
    column order j-1, j, j+1, j+2 so that E @ v sums the stencil terms in
    that order; wgt is the read-only (winding, M) array of 1/T' there."""
    M = resolution
    x = np.arange(M) / M
    m0 = _anchor_offset(m)
    y = np.empty((m.winding, M))
    for b in range(m.winding):
        y[b] = _solve_lift(m, m0 + b + x)
    wgt = 1.0 / m.dlift(y)
    wgt.setflags(write=False)
    u = (y.ravel() % 1.0) * M
    j = np.floor(u).astype(np.int64)
    t = u - j
    j %= M
    cols = np.stack([(j - 1) % M, j, (j + 1) % M, (j + 2) % M], axis=1)
    coef = np.stack([
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    ], axis=1)
    rows = y.size
    E = sparse.csr_array(
        (coef.ravel(), cols.ravel(), np.arange(0, 4 * rows + 1, 4)),
        shape=(rows, M),
    )
    return E, wgt


def _operator(m: ExpandingMap, resolution: int):
    """The cached (E, wgt) of ``m`` at ``resolution``, built on first use."""
    with _OPERATORS_LOCK:
        per_map = _OPERATORS.setdefault(m, {})
        op = per_map.get(resolution)
        if op is None:
            op = per_map[resolution] = _build_operator(m, resolution)
    return op


def apply_function(m: ExpandingMap, f: GridFunction) -> GridFunction:
    """L f without any renormalization; preserves node-wise nonnegativity."""
    E, wgt = _operator(m, f.resolution)
    ev = E @ f.values
    if np.all(f.values >= 0.0):
        np.maximum(ev, 0.0, out=ev)
    return GridFunction((ev.reshape(wgt.shape) * wgt).sum(axis=0))


def apply(m: ExpandingMap, psi: GridDensity) -> GridDensity:
    """L psi, renormalized to unit mean (mass drift is logged past 1e-8)."""
    raw = apply_function(m, psi)
    drift = abs(integrate(raw) - 1.0)
    if drift > DRIFT_WARN:
        logger.warning(
            "transfer step mass drift %.3e on %r at M=%d", drift, m, psi.resolution
        )
    return GridDensity(raw.values)


@dataclass
class StepRecord:
    step: int
    l1_diff: float
    sup: float
    inf: float
    d_l1: float


@dataclass
class IterationDiagnostics:
    records: list

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def final_sup(self) -> float:
        return self.records[-1].sup if self.records else float("nan")

    @property
    def final_inf(self) -> float:
        return self.records[-1].inf if self.records else float("nan")

    def to_records(self) -> list:
        return [
            {
                "step": r.step,
                "l1_diff": r.l1_diff,
                "sup": r.sup,
                "inf": r.inf,
                "d_l1": r.d_l1,
            }
            for r in self.records
        ]


def _derivative_l1(f: GridDensity) -> float:
    """Mean |central finite difference|, an L1 size of the derivative."""
    v = f.values
    M = v.size
    return float(np.abs((np.roll(v, -1) - np.roll(v, 1)) * (M / 2.0)).mean())


def _step_record(step: int, prev: GridDensity, cur: GridDensity) -> StepRecord:
    return StepRecord(
        step=step,
        l1_diff=l1_distance(cur, prev),
        sup=sup_norm(cur),
        inf=inf_value(cur),
        d_l1=_derivative_l1(cur),
    )


def iterate(m: ExpandingMap, psi: GridDensity, n: int):
    """(L^n psi, diagnostics); n = 0 returns psi unchanged."""
    if n < 0:
        raise ValueError("n must be >= 0")
    records = []
    cur = psi
    for step in range(1, n + 1):
        nxt = apply(m, cur)
        records.append(_step_record(step, cur, nxt))
        cur = nxt
    return cur, IterationDiagnostics(records)


def cesaro(m: ExpandingMap, psi: GridDensity, n_terms: int) -> GridDensity:
    """Average of L^k psi over k = 0..n_terms-1."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    acc = np.array(psi.values)
    cur = psi
    for _ in range(n_terms - 1):
        cur = apply(m, cur)
        acc += cur.values
    return GridDensity(acc / n_terms)


def invariant_density(
    m: ExpandingMap,
    *,
    resolution: int = density_grid.DEFAULT_RESOLUTION,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    psi0: GridDensity | None = None,
):
    """Fixed point of L by forward iteration from the uniform density.

    Stops when the successive L1 difference falls below ``tol``; raises
    NoConvergence when the budget runs out.  Returns (phi, diagnostics).
    """
    cur = psi0 if psi0 is not None else uniform_density(resolution)
    records = []
    for step in range(1, max_iter + 1):
        nxt = apply(m, cur)
        rec = _step_record(step, cur, nxt)
        records.append(rec)
        cur = nxt
        if rec.l1_diff < tol:
            return cur, IterationDiagnostics(records)
    raise NoConvergence(
        f"no fixed point within {max_iter} steps on {m!r}; "
        f"last l1_diff = {records[-1].l1_diff:.3e}"
    )


def _c1_size(f: GridFunction) -> float:
    v = f.values
    M = v.size
    fd = np.abs((np.roll(v, -1) - np.roll(v, 1)) * (M / 2.0)).max()
    return sup_norm(f) + float(fd)


def check_growth_bounds(m: ExpandingMap, f: GridFunction, steps) -> list:
    """Growth caps of the iterates L^n f, n in ``steps``, from one walk of L
    up to max(steps): sup |L^n f| <= (1 + Omega) sup |f|, and the C1 size
    sup + sup|fd| of L^n f <= (1 + Omega)^2 (same size of f), each with 2%
    slack.  Returns (sup_lhs, sup_rhs, c1_lhs, c1_rhs, ok) per step, in
    the order of ``steps``."""
    omega = compute_ledger(m, 1.0).omega
    sup_rhs = (1.0 + omega) * sup_norm(f)
    c1_rhs = (1.0 + omega) ** 2 * _c1_size(f)
    rows = {}
    cur = f
    for n in range(max(steps) + 1):
        if n:
            cur = apply_function(m, cur)
        if n in steps:
            sup_lhs, c1_lhs = sup_norm(cur), _c1_size(cur)
            rows[n] = (sup_lhs, sup_rhs, c1_lhs, c1_rhs,
                       sup_lhs <= sup_rhs * 1.02 and c1_lhs <= c1_rhs * 1.02)
    return [rows[n] for n in steps]
