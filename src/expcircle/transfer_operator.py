"""Transfer operator of an expanding circle map acting on grid functions:

    (L u)(x) = sum over the w preimages y of x of  u(y) / T'(y).

Between nodes u is evaluated with a 4-point Lagrange stencil.  Per (map,
resolution) the node preimages are solved once and the stencil is stored
as a sparse matrix E of shape (w*M, M), four weights per row, together
with the (w, M) weights 1/T'; the pair lives as long as its map.  E's
weights and its int32 column indices and row pointers (int64 only once
4*w*M + 1 passes the int32 range) are allocated once and filled one block
of nodes at a time, so a stencil row costs 60 bytes kept and at most
TABLE_PEAK_BYTES_PER_ROW while it is built; a table whose build
would peak above TABLE_BYTES_CAP, half the physical memory, is refused
by check_bytes, the package's one memory-cap check, before anything is
allocated.  An application is one product E u, clamped at zero when the
input is nonnegative so positivity survives exactly, weighted by 1/T' in
place and summed over the w branches into the one array the result keeps.  The grid representation
and all norms stay piecewise-linear; the higher-order stencil is confined
to this module because the linear one plateaus near 1e-6 on node-level
operator identities (mass conservation, exact trigonometric pushforwards)
that are audited at the 1e-10 scale.
"""

from __future__ import annotations

import itertools
import logging
import os
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .circle_map import ExpandingMap
from .density_grid import (
    DEFAULT_RESOLUTION,
    GridDensity,
    GridFunction,
    inf_value,
    l1_distance,
    sup_norm,
    _density,
    _owned,
    uniform_density,
)
from .errors import NoConvergence
from .inverse_branches import _anchor_offset, _solve_lift
from .system_constants import compute_ledger

DRIFT_WARN = 1e-8               # the mass drift past which apply logs a warning
INVARIANT_MAX_ITER = 10_000     # invariant_density's step budget

logger = logging.getLogger(__name__)


# Bytes per stencil row that _build_operator holds at its peak: the 60 it
# keeps plus the work arrays of one block of SOLVE_BLOCK nodes, about 80 kB
# whatever M is.  At M = 65536 that reads 60.65 on the w = 2 standard maps
# and 60.43 on linear{3} (tier-1 pins it); at smaller M the block's share
# per row is larger, but such a table is far below the cap.  A build whose
# estimated peak passes TABLE_BYTES_CAP, half the physical memory, is
# refused.
TABLE_PEAK_BYTES_PER_ROW = 61
# Nodes whose preimages _build_operator solves and fills in one go.
SOLVE_BLOCK = 4096
TABLE_BYTES_CAP = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2

# Per-map operators, keyed by resolution; an entry lives as long as its map.
# The cache takes no lock: expcircle starts no thread, and its audits run
# serially.
_OPERATORS: "weakref.WeakKeyDictionary[ExpandingMap, dict]" = weakref.WeakKeyDictionary()


def _index_dtype(winding: int, resolution: int):
    """The integer type of E's column indices and row pointers: int32 while
    the largest row pointer, 4 * winding * resolution, fits in it."""
    return np.int32 if 4 * winding * resolution + 1 <= np.iinfo(np.int32).max else np.int64


def _build_operator(m: ExpandingMap, resolution: int):
    """(E, wgt): E is the (winding*M, M) CSR matrix whose row b*M + i holds
    the 4-point Lagrange weights of node i's preimage under branch b, in
    column order j-1, j, j+1, j+2 so that E @ v sums the stencil terms in
    that order; wgt is the read-only (winding, M) array of 1/T' there.

    E's arrays are allocated once, at their final size, and filled one
    block of SOLVE_BLOCK nodes of one branch at a time, so that the work
    arrays are at most SOLVE_BLOCK long, not winding*M.  _solve_lift
    iterates each point alone, so the blocks change no bit."""
    M = resolution
    w = m.winding
    rows = w * M
    itype = _index_dtype(w, M)
    coef = np.empty((rows, 4))
    cols = np.empty((rows, 4), dtype=itype)
    wgt = np.empty((w, M))
    m0 = _anchor_offset(m)
    for b in range(w):
        for s in range(0, M, SOLVE_BLOCK):
            x = np.arange(s, min(s + SOLVE_BLOCK, M)) / M
            y = _solve_lift(m, m0 + b + x)
            np.divide(1.0, m.dlift(y), out=wgt[b, s:s + x.size])
            u = np.remainder(y, 1.0, out=y)
            u *= M
            j = np.floor(u)
            t = np.subtract(u, j, out=u)
            j = j.astype(itype)
            j %= M
            block = slice(b * M + s, b * M + s + x.size)
            c = cols[block]
            c[:, 0] = (j - 1) % M
            c[:, 1] = j
            c[:, 2] = (j + 1) % M
            c[:, 3] = (j + 2) % M
            c = coef[block]
            c[:, 0] = -t * (t - 1.0) * (t - 2.0) / 6.0
            c[:, 1] = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
            c[:, 2] = -(t + 1.0) * t * (t - 2.0) / 2.0
            c[:, 3] = (t + 1.0) * t * (t - 1.0) / 6.0
    wgt.setflags(write=False)
    E = sparse.csr_array(
        (coef.ravel(), cols.ravel(), np.arange(0, 4 * rows + 1, 4, dtype=itype)),
        shape=(rows, M),
    )
    return E, wgt


def check_bytes(need: int, what: str) -> None:
    """Refuse, with MemoryError, an allocation of ``need`` bytes above
    TABLE_BYTES_CAP, half the physical memory: the one memory-cap check of
    the package, made before anything is allocated.  ``what`` opens the
    message and ends just before the size in GiB."""
    if need > TABLE_BYTES_CAP:
        raise MemoryError(
            f"{what} {need / 2**30:.3g} GiB, above the cap of "
            f"{TABLE_BYTES_CAP / 2**30:.3g} GiB (half the physical memory)"
        )


def _operator(m: ExpandingMap, resolution: int):
    """The cached (E, wgt) of ``m`` at ``resolution``, built on first use.
    A table whose build would peak above the memory cap is refused by
    check_bytes before anything is allocated."""
    per_map = _OPERATORS.setdefault(m, {})
    op = per_map.get(resolution)
    if op is None:
        check_bytes(m.winding * resolution * TABLE_PEAK_BYTES_PER_ROW,
                    f"the operator table of {m!r} at M={resolution} would peak near")
        op = per_map[resolution] = _build_operator(m, resolution)
    return op


def apply_function(m: ExpandingMap, f: GridFunction) -> GridFunction:
    """L f without any renormalization; preserves node-wise nonnegativity:
    E f is clamped at zero when f is a density, nonnegative by
    construction, or has no negative node value.  The one image kernel of
    the package: apply goes through it too."""
    E, wgt = _operator(m, f.resolution)
    v = f.values
    ev = E @ v
    if isinstance(f, GridDensity) or v.min() >= 0.0:
        np.maximum(ev, 0.0, out=ev)
    ev = ev.reshape(wgt.shape)
    ev *= wgt
    # the branches added in order: the floats of ev.sum(axis=0), without
    # its reduction machinery
    raw = ev[0] + ev[1]
    for row in ev[2:]:
        raw += row
    return _owned(raw)


def apply(m: ExpandingMap, psi: GridDensity) -> GridDensity:
    """L psi, renormalized to unit mean (mass drift is logged past 1e-8)."""
    raw = apply_function(m, psi).values
    # integrate(), taken once for both uses: the float of raw.mean(), the
    # same pairwise sum divided by M, without mean's wrapper
    mean = float(raw.sum()) / raw.size
    drift = abs(mean - 1.0)
    if drift > DRIFT_WARN:
        logger.warning(
            "transfer step mass drift %.3e on %r at M=%d", drift, m, psi.resolution
        )
    return _density(raw, mean)


def orbit(m: ExpandingMap, f: GridFunction):
    """Yield f, L f, L^2 f, ... lazily: each application is made when its
    iterate is read, by ``apply`` for a GridDensity and ``apply_function``
    for any other GridFunction.  Every L^n walk of the package but the
    coupling epochs' goes through here."""
    step = apply if isinstance(f, GridDensity) else apply_function
    while True:
        yield f
        f = step(m, f)


@dataclass
class IterationDiagnostics:
    """Per-step series of a fixed-point iteration; entry i is step i + 1."""

    l1_diff: np.ndarray                  # ||L^(i+1) psi - L^i psi||_1
    sup: np.ndarray
    inf: np.ndarray
    d_l1: np.ndarray                     # _derivative_l1 of the iterate

    @property
    def n_steps(self) -> int:
        return self.l1_diff.size


def _central_differences(v: np.ndarray) -> np.ndarray:
    """|v[i+1] - v[i-1]| * M/2 at each node i of the periodic grid values
    ``v``, taken by slicing."""
    M = v.size
    d = np.empty(M)
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    d[0] = v[1] - v[-1]
    d[-1] = v[0] - v[-2]
    d *= M / 2.0
    return np.abs(d, out=d)


def _derivative_l1(f: GridDensity) -> float:
    """Mean |central finite difference|, an L1 size of the derivative."""
    return float(_central_differences(f.values).mean())


def cesaro(m: ExpandingMap, psi: GridDensity, terms) -> list:
    """The averages of L^k psi over k = 0..n-1, one per length n of
    ``terms``, in its order, from one walk of L up to max(terms) - 1."""
    if min(terms) < 1:
        raise ValueError("every length must be >= 1")
    acc = np.array(psi.values)
    averages = {}
    for n, cur in enumerate(itertools.islice(orbit(m, psi), max(terms)), 1):
        if n > 1:
            acc += cur.values
        if n in terms:
            averages[n] = GridDensity(acc / n)
    return [averages[n] for n in terms]


def invariant_density(
    m: ExpandingMap,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = 1e-12,
    psi0: GridDensity | None = None,
):
    """Fixed point of L by forward iteration from the uniform density.

    Stops when the successive L1 difference falls below ``tol``; raises
    NoConvergence after INVARIANT_MAX_ITER steps.  Returns (phi,
    diagnostics).
    """
    rows = []
    steps = itertools.islice(
        orbit(m, psi0 if psi0 is not None else uniform_density(resolution)),
        INVARIANT_MAX_ITER + 1)
    for cur, nxt in itertools.pairwise(steps):
        rows.append((l1_distance(nxt, cur), sup_norm(nxt), inf_value(nxt),
                     _derivative_l1(nxt)))
        if rows[-1][0] < tol:
            return nxt, IterationDiagnostics(*np.array(rows).T)
        del cur     # so that only nxt is alive while its successor is made
    raise NoConvergence(
        f"no fixed point within {INVARIANT_MAX_ITER} steps on {m!r}; "
        f"last l1_diff = {rows[-1][0]:.3e}"
    )


def _c1_size(f: GridFunction) -> float:
    return sup_norm(f) + float(_central_differences(f.values).max())


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
    for n, cur in enumerate(itertools.islice(orbit(m, f), max(steps) + 1)):
        if n in steps:
            sup_lhs, c1_lhs = sup_norm(cur), _c1_size(cur)
            rows[n] = (sup_lhs, sup_rhs, c1_lhs, c1_rhs,
                       sup_lhs <= sup_rhs * 1.02 and c1_lhs <= c1_rhs * 1.02)
    return [rows[n] for n in steps]
