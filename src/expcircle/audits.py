"""Quantitative audit sweeps shared by the ``verify`` subcommand and tests.

Each audit exercises one guaranteed property of the library on a concrete
map and returns AuditResult records.  Audits are pure functions of their
seeds, so results are reproducible; the tolerances pinned here are the
ones quoted by the acceptance tests.  ``_audit`` registers each audit in
run order and times it, fails it on a violation and builds its results.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle_map import (
    ExpandingMap,
    certify,
    circle_distance,
    evaluate,
    linear_map,
    perturbed_map,
)
from .coupling_lab import (CHI2_P_FLOOR, decompose, deterministic_contraction_run,
                           monte_carlo_coupling)
from .correlation_suite import (
    convergence_reports,
    decay_report,
    density_convergence_report,
    normalized_observable_density,
)
from .density_grid import (
    DEFAULT_RESOLUTION,
    GridDensity,
    GridFunction,
    holder_coefficient,
    holder_profiles,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    sample,
    sup_norm,
    uniform_density,
)
from .errors import Violation
from .inverse_branches import _anchor_offset, _residual_tol, walk
from .system_constants import (
    ROUNDING_SLACK,
    compute_ledger,
    hoelder_class_check,
    holder_iteration_cap,
    pointwise_log_bounds_hold,
    positivity_floor,
)
from .transfer_operator import (
    apply_function,
    cesaro,
    check_growth_bounds,
    invariant_density,
    orbit,
)

DEFAULT_ALPHAS = (0.3, 0.5, 1.0)
CLASS_ALPHAS = (0.5, 1.0)
CLASS_CAPS = (5.0, 20.0, None)           # None -> the ledger's K
MASS_TOL = 1e-10
DUALITY_REL_TOL = 5e-3
UNIQUENESS_TOL = 1e-8

# Error models of the pullback gates, each built on _step_error's r.  As
# T' >= lambda a pullback step lands within r / lambda of the exact preimage
# of its input and shrinks the input's error by 1/lambda, so a walk's points
# are within r / (lambda - 1) of their exact pullbacks at any depth.
# DISTORTION_SLACK: an error e moves T' by a relative d2_sup e / lambda at
# most, so a depth-n product is off by a relative n (Omega r + ulp), Omega =
# d2_sup / (lambda (lambda - 1)), and the ratio, at most exp(Omega / 2), by
# twice that.  At depth 8: 3.5e-15 (linear maps), 9.8e-12 and 6.4e-11
# (perturbed{2,0.02}, {2,0.05}), but 6.0e-9 on {2,0.1}, which the slack does
# not cover.  Measured worst excess over the band: 3e-17 on the linear maps
# (ratio 1, band [1, 1]), -3.0e-5 to -1.0e-3 on the perturbed ones.
DISTORTION_SLACK = 1e-9


@dataclass(frozen=True)
class AuditResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0
    margin: float | None = None     # bound + slack - measured; None if compound

    def __bool__(self) -> bool:
        return self.ok


def standard_maps() -> list:
    """The five concrete maps every sweep runs on."""
    return [
        linear_map(2),
        linear_map(3),
        perturbed_map(2, 0.02),
        perturbed_map(2, 0.05),
        perturbed_map(2, 0.1),
    ]


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _trig_polynomials(rng: np.random.Generator, resolution: int, amp: np.ndarray):
    """Yield sum over k = 1..len(amp) of a_k cos 2 pi k x + b_k sin 2 pi k x
    at the nodes, drawing a_k then b_k as N(0, 1) * amp at each next(), from
    cos and sin tables built once."""
    k = np.arange(1, amp.size + 1)
    x = np.arange(resolution) / resolution
    phase = 2.0 * np.pi * np.outer(k, x)
    cos, sin = np.cos(phase), np.sin(phase)
    while True:
        a, b = rng.normal(size=(2, amp.size)) * amp
        yield a @ cos + b @ sin


def _smooth_densities(rng, resolution: int):
    """Random densities whose log is a trigonometric polynomial of 8 modes
    with amplitudes 0.5 / (1 + k)^2, one per next().

    Smoothness keeps node-mean quadrature errors at machine scale, which
    the 1e-10 identity audits rely on; rougher inputs are used only where
    no quadrature identity is asserted.
    """
    k = np.arange(1, 9)
    for v in map(np.exp, _trig_polynomials(rng, resolution, 0.5 / (1.0 + k) ** 2)):
        yield GridDensity(v / v.mean())


def _smooth_functions(rng, resolution: int):
    """Random signed trigonometric polynomials of 6 modes with amplitudes
    1 / (1 + k) (observable-shaped)."""
    k = np.arange(1, 7)
    return map(GridFunction, _trig_polynomials(rng, resolution, 1.0 / (1.0 + k)))


def smooth_density(seed, resolution: int = DEFAULT_RESOLUTION) -> GridDensity:
    """One draw of ``_smooth_densities``."""
    return next(_smooth_densities(_rng(seed), resolution))


def smooth_function(seed, resolution: int = DEFAULT_RESOLUTION) -> GridFunction:
    """One draw of ``_smooth_functions``."""
    return next(_smooth_functions(_rng(seed), resolution))


def cos_observable(resolution: int = DEFAULT_RESOLUTION) -> GridFunction:
    """cos 2 pi x, the observable of ``expcircle decay``."""
    x = np.arange(resolution) / resolution
    return GridFunction(np.cos(2.0 * np.pi * x))


def density_family(resolution: int = DEFAULT_RESOLUTION) -> list:
    """Canonical strictly positive densities for the contraction sweeps."""
    x = np.arange(resolution) / resolution
    cos = cos_observable(resolution).values

    def norm(v):
        return GridDensity(v / v.mean())

    return [
        norm(1.0 + 0.5 * cos),
        norm(np.exp(cos)),
        norm(np.exp(0.3 * cos + 0.2 * np.sin(4.0 * np.pi * x))),
    ]


def cosine_density(resolution: int = DEFAULT_RESOLUTION) -> GridDensity:
    """exp(0.3 cos 2 pi x), normalized: the second start of the invariant
    density and the first density of the coupling pair."""
    x = np.arange(resolution) / resolution
    v = np.exp(0.3 * np.cos(2.0 * np.pi * x))
    return GridDensity(v / v.mean())


def coupling_pair(resolution: int = DEFAULT_RESOLUTION) -> tuple:
    """The start densities of every Monte-Carlo coupling run."""
    return cosine_density(resolution), uniform_density(resolution)


def _test_functions(resolution: int, ripple_seed: int) -> list:
    """(label, f): cos 2 pi x, a tanh step of it and a seeded ripple."""
    cos = cos_observable(resolution)
    return [
        ("cos", cos),
        ("step", GridFunction(0.5 * (1.0 + np.tanh(cos.values / 0.15)))),
        ("ripple", smooth_function(ripple_seed, resolution)),
    ]


def observable_family(resolution: int, alphas):
    """(label, f) test observables plus (label, g, alphas served) Hoelder
    observables: cos 2 pi x serves every alpha, the cusp d(x, 0)^a only a."""
    fs = _test_functions(resolution, 2024)
    x = np.arange(resolution) / resolution
    cusps = [("cusp", GridFunction(np.minimum(x, 1.0 - x) ** a), (a,)) for a in alphas]
    return fs, [(*fs[0], tuple(alphas)), *cusps]


# Per-map invariant densities, keyed by resolution; an entry lives as long
# as its map.
_INVARIANTS: "weakref.WeakKeyDictionary[ExpandingMap, dict]" = weakref.WeakKeyDictionary()


def cached_invariant(m: ExpandingMap, resolution: int = DEFAULT_RESOLUTION):
    """(phi, diagnostics) of ``m`` at ``resolution``, computed on first use."""
    per_map = _INVARIANTS.setdefault(m, {})
    if resolution not in per_map:
        per_map[resolution] = invariant_density(m, resolution=resolution)
    return per_map[resolution]


class Verdict(NamedTuple):
    """One result as an audit body measured it; ``margin`` is bound plus
    slack minus measured (>= 0 passes), None where the verdict is not one
    comparison."""
    ok: bool
    detail: str
    margin: float | None = None


def _gate(margin: float, detail: str, slack: float = 0.0, strict: bool = False) -> Verdict:
    """A single numeric comparison: pass at margin + slack >= 0 (> if
    strict), and that sum is the recorded margin, so its sign is the
    verdict.  A float sum is 0 only when margin is exactly -slack, and
    rounding keeps the sign of any other, so this passes exactly where
    margin >= -slack (> -slack) does."""
    margin = float(margin + slack)
    return Verdict(margin > 0.0 if strict else margin >= 0.0, detail, margin)


# (attribute, result count, run_all arguments taken, per-map), in run order.
_AUDITS: list = []
# The arguments run_all forwards to the audits that take them.
_FORWARDED = ("seed", "trials", "resolution", "n_max")


def _audit(*names: str):
    """Register an audit body that returns one Verdict per result name (a
    bare Verdict for one).  The body's keyword-only parameters are the
    run_all arguments it receives, each one of _FORWARDED (any other raises
    TypeError); a positional parameter, the map, makes it per-map.  The
    registered function times the body, fails every name on a violation
    and returns the AuditResults, a list for several names with the wall
    time on the first; the body's return annotation is that of the
    registered function."""
    def register(body):
        params = inspect.signature(body).parameters.values()
        takes = tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)
        unknown = [name for name in takes if name not in _FORWARDED]
        if unknown:
            raise TypeError(f"{body.__name__} takes {unknown}, which run_all "
                            f"does not supply (it forwards {list(_FORWARDED)})")
        per_map = any(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                      for p in params)

        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = body(*args, **kwargs)
            except Violation as exc:
                verdicts = [Verdict(False, str(exc))] * len(names)
            else:
                verdicts = out if len(names) > 1 else [out]
            seconds = [time.perf_counter() - t0] + [0.0] * (len(names) - 1)
            results = [AuditResult(name, bool(v.ok), v.detail, s, v.margin)
                       for name, v, s in zip(names, verdicts, seconds, strict=True)]
            return results if len(names) > 1 else results[0]

        _AUDITS.append((body.__name__, len(names), takes, per_map))
        return run

    return register


# ---------------------------------------------------------------------------
# map-level audits


@_audit("certificate")
def audit_certificate(m: ExpandingMap) -> AuditResult:
    """Certified lambda really is a lower bound of T' on fresh samples, and
    forward steps are d1_sup-Lipschitz."""
    rng = _rng(3)
    cert = certify(m)
    xs = rng.random(4096)
    dmin = float(m.dlift(xs).min())
    ys = rng.random(4096)
    lip = float(
        (circle_distance(evaluate(m, xs), evaluate(m, ys))
         - m.d1_sup * circle_distance(xs, ys)).max()
    )
    ok = dmin >= cert["lambda"] and lip <= 1e-12
    return Verdict(
        ok, f"min sampled T' - lambda = {dmin - cert['lambda']:.3e}, "
        f"worst forward-Lipschitz excess = {lip:.3e}",
    )


@_audit("second-derivative-fd")
def audit_second_derivative(m: ExpandingMap) -> AuditResult:
    """T'' agrees with a central finite difference of T' (h=1e-5, tol 1e-5)."""
    rng = _rng(4)
    xs = rng.random(100)
    h = 1e-5
    fd = (m.dlift(xs + h) - m.dlift(xs - h)) / (2.0 * h)
    worst = float(np.abs(fd - m.d2lift(xs)).max())
    return _gate(-worst, f"worst |fd - T''| = {worst:.3e} over 100 points",
                 slack=1e-5)


def _step_error(m: ExpandingMap) -> float:
    """r, the error of one pullback step on ``m``: the bound of
    inverse_branches' stop rule at the top target m0 + w (1e-12 at every
    standard target) plus 4 ulps of it for the lift's rounding.  A walk's
    node u_k then has |F(u_k) - (m0 + b + u_(k-1))| <= r, so T(u_k) is
    within r of its parent u_(k-1) on the circle."""
    top = _anchor_offset(m) + m.winding
    return float(_residual_tol(top) + 4.0 * np.spacing(top))


@_audit("arc-expansion", "preimage-roundtrip")
def audit_arc_expansion(m: ExpandingMap) -> list:
    """One walk of every prefix of the sampled paths to depth 6.  Arcs: at
    a depth-one node the preimages of the sorted x cut its branch's piece
    into arcs J, which T maps onto the gaps between consecutive x, and
    lambda |J| <= |T(J)|.  Roundtrip: T(u_k) lies within one step's error
    of its parent u_(k-1), u_0 = x.  The depth-n round trip T^n(u_n) = x
    follows by induction; checked after n forward steps instead, the
    steps' errors grow by up to d1_sup per step, past any fixed slack."""
    rng = _rng(6)
    xs = np.sort(rng.random(64))        # so a branch's arcs are consecutive
    paths = _sampled_paths(m.winding, 6, rng, cap=40)
    nodes = {p[:k] for p in paths for k in range(1, len(p) + 1)}
    pulled = {(): xs}
    worst_arc, worst = -np.inf, 0.0
    for end in walk(m, nodes, xs):       # a parent comes before its children
        pulled[end.path] = end.u
        tu = evaluate(m, end.u)
        worst = max(worst, float(circle_distance(tu, pulled[end.path[:-1]]).max()))
        if len(end.path) == 1:          # arcs within one branch, no wrap arc
            excess = m.lam * (np.diff(end.u) % 1.0) - np.diff(tu) % 1.0
            worst_arc = max(worst_arc, float(excess.max()))
    arcs = (xs.size - 1) * sum(len(p) == 1 for p in nodes)
    # Arc slack: T' >= lambda on a piece, so the inequality holds exactly at
    # the computed ends, whatever their root error.  Each T value rounds by
    # 4 ulps of the top target m0 + w (the wrap is exact), the differences
    # and their mod 1 by an ulp of 1 on each side, times lambda for |J|,
    # and lambda |J| by half an ulp: 4.2e-15 to 4.6e-15 on the standard
    # maps, 2.8e-13 at degree 235, where the worst excess is 0 and 2.2e-16
    # (linear{2}, {3}) and -4.3e-9 to -5.5e-8 (perturbed).  Roundtrip
    # slack: r, plus 2 ulps of 1 for the wrap and the distance: 1.0e-12 on
    # the standard maps, whose worst distance is 1.1e-16 (linear{2}),
    # 2.2e-16 (linear{3}) and 9.7e-13 to 1.0e-12 (perturbed).
    top = _anchor_offset(m) + m.winding
    return [
        _gate(-worst_arc, f"worst lambda*|J| - |T(J)| = {worst_arc:.3e} over {arcs} arcs",
              slack=8.0 * np.spacing(top) + (m.lam + 1.5) * np.spacing(1.0)),
        _gate(-worst, f"worst one-step return distance {worst:.3e} over "
              f"{len(nodes) * 64} node points", slack=_step_error(m) + 2.0 * np.spacing(1.0)),
    ]


@_audit("preimage-partition")
def audit_partition(m: ExpandingMap) -> AuditResult:
    """One walk of every branch path of depth 1..3 at 512 nodes.  A node's
    w depth-one preimages cut the circle into w arcs that T maps onto it,
    so each is 1/d1_sup to 1/lambda long; the branch sums of 1/(T^n)', L^n 1,
    have unit node mean and match the grid operator's L^n 1, n = 1, 2, 3."""
    nodes = np.arange(512) / 512
    paths = [p for depth in (1, 2, 3)
             for p in itertools.product(range(m.winding), repeat=depth)]
    branch = np.zeros((3, nodes.size))
    ends = []
    for end in walk(m, paths, nodes):
        branch[len(end.path) - 1] += 1.0 / end.du
        if len(end.path) == 1:
            ends.append(end.u)
    ends = np.sort(ends, axis=0)
    arcs = np.diff(ends, axis=0, append=ends[:1] + 1.0)
    worst_arc = float(np.max(np.maximum(arcs - 1.0 / m.lam, 1.0 / m.d1_sup - arcs)))
    # Slack: an end is within r / lambda of its root, and an arc's
    # subtractions and the band's reciprocals round by 2 ulps of 1: 6.7e-13
    # to 1.5e-12 on the standard maps, whose worst excess is 0 (linear{2}),
    # 5.6e-17 (linear{3}) and -9.6e-3 to -2.4e-2 (perturbed).
    slack = 2.0 * _step_error(m) / m.lam + 2.0 * np.spacing(1.0)
    grids = itertools.islice(orbit(m, GridFunction(np.ones(512))), 1, 4)
    grids = np.array([g.values for g in grids])
    worst_mass = float(np.abs(branch.mean(axis=1) - 1.0).max())
    worst_route = float(np.abs(branch - grids).max())
    if m.d2_sup == 0.0:
        worst_route = max(worst_route, float(np.abs(branch - 1.0).max()))
    ok = worst_arc <= slack and worst_mass <= 1e-10 and worst_route <= 1e-9
    return Verdict(ok, f"worst arc band excess {worst_arc:.1e}, mass defect "
                   f"{worst_mass:.1e}, route mismatch {worst_route:.1e}")


def _sampled_paths(w: int, max_depth: int, rng: np.random.Generator, cap: int = 600):
    """Branch paths of every depth 1..max_depth: all of them at a depth whose
    tree has at most cap paths, else cap distinct rows of seeded digits in
    [0, w) (first occurrences kept, the shortfall redrawn)."""
    out = []
    for depth in range(1, max_depth + 1):
        if w ** depth <= cap:
            out += itertools.product(range(w), repeat=depth)
            continue
        paths = {}
        while len(paths) < cap:
            rows = rng.integers(w, size=(cap - len(paths), depth))
            paths.update(dict.fromkeys(map(tuple, rows.tolist())))
        out += paths
    return out


@_audit("backward-contraction", "distortion")
def audit_backward_contraction(m: ExpandingMap) -> list:
    """One walk of 1000 sampled pairs over (all, or a seeded subsample of)
    branch paths up to depth 8 checks backward contraction, d(pullback x,
    pullback y) <= lambda^-n d(x, y), and distortion: derivative-product
    ratios stay inside [exp(-Omega d), exp(Omega d)] uniformly in depth."""
    rng = _rng(9)
    xs = rng.random(1000)
    ys = rng.random(1000)
    omega = compute_ledger(m, 1.0).omega
    d = np.atleast_1d(circle_distance(xs, ys))
    lo = np.exp(-omega * d) - DISTORTION_SLACK
    hi = np.exp(omega * d) + DISTORTION_SLACK
    worst_gap = worst_band = -np.inf
    paths = _sampled_paths(m.winding, 8, rng)
    for end in walk(m, paths, xs, ys):
        rhs = m.lam ** (-len(end.path)) * d
        worst_gap = max(worst_gap, float((end.gap - rhs).max()))
        ratio = end.du / end.dv
        worst_band = max(worst_band, float((ratio - hi).max()), float((lo - ratio).max()))
    cells = f"over {len(paths) * 1000} pair-path cells"
    # The pair slack: a lifted gap |u_n - v_n| is off by 2 r / (lambda - 1),
    # at most 5.4e-12 (perturbed{2,0.1}, lambda 1.372).  Measured worst
    # lhs - rhs: 1.8e-16 and 2.3e-16 on linear{2} and {3}, where the bound
    # is attained, and -2.5e-7 to -7.9e-6 on the perturbed maps.
    return [
        _gate(-worst_gap, f"worst lhs - rhs = {worst_gap:.3e} {cells}",
              slack=2.0 * _step_error(m) / (m.lam - 1.0)),
        _gate(-worst_band, f"worst band excess {worst_band:.3e} {cells}"),
    ]


@_audit("operator-mass", "operator-positivity", "operator-contraction")
def audit_operator_identities(m: ExpandingMap, *,
                              resolution: int = DEFAULT_RESOLUTION) -> list:
    """Mass conservation (raw, pre-renormalization), exact positivity, and
    L1 contraction of single applications over 100 random densities."""
    rng = _rng(11)
    worst_mass = 0.0
    min_value = np.inf
    worst_contr = -np.inf
    prev = None
    for psi in itertools.islice(_smooth_densities(rng, resolution), 100):
        raw = apply_function(m, psi)
        worst_mass = max(worst_mass, abs(integrate(raw) - integrate(psi)))
        min_value = min(min_value, float(raw.values.min()))
        if prev is not None:
            u = GridFunction(psi.values - prev.values)
            worst_contr = max(
                worst_contr,
                float(np.abs(apply_function(m, u).values).mean())
                - float(np.abs(u.values).mean()),
            )
        prev = psi
    # positivity must also hold for rough (non-smooth) nonnegative input
    for _ in range(10):
        v = np.abs(rng.normal(size=resolution)) + 1e-9
        rough = GridDensity(v / v.mean())
        min_value = min(min_value, float(apply_function(m, rough).values.min()))
    return [
        _gate(-worst_mass, f"worst raw mass drift {worst_mass:.3e} over 100 "
              "densities", slack=MASS_TOL),
        _gate(min_value, f"min output node value {min_value:.3e}"),
        _gate(-worst_contr, f"worst ||Lu||_1 - ||u||_1 = {worst_contr:.3e}",
              slack=MASS_TOL),
    ]


@_audit("operator-duality")
def audit_duality(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """int (f o T) g dm == int f (L g) dm up to interpolation error, over 20
    random pairs."""
    rng = _rng(12)
    x = np.arange(resolution) / resolution
    tx = evaluate(m, x)
    worst = -np.inf
    inputs = _smooth_functions(rng, resolution)
    for f, g in itertools.islice(zip(inputs, inputs), 20):
        lhs = float(np.mean(f.evaluate(tx) * g.values))
        rhs = integrate(GridFunction(f.values * apply_function(m, g).values))
        tol = DUALITY_REL_TOL * sup_norm(f) * sup_norm(g)
        worst = max(worst, abs(lhs - rhs) - tol)
    return _gate(-worst, f"worst |defect| - tol = {worst:.3e} over 20 pairs")


@_audit("sup-c1-bounds")
def audit_sup_c1_bounds(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """sup and C1-size growth caps (1+Omega), (1+Omega)^2 for the iterates
    n = 1, 5, 15, 30."""
    ok = True
    worst = -np.inf
    for _, f in _test_functions(resolution, 77):
        for sup_lhs, sup_rhs, _, _, fine in check_growth_bounds(m, f, (1, 5, 15, 30)):
            ok = ok and fine
            worst = max(worst, sup_lhs - sup_rhs)
    return Verdict(ok, f"worst sup-bound excess {worst:.3e} (2% slack applies)")


@_audit("holder-log-contraction", "holder-growth-cap", "positivity-floor",
        "pointwise-log-bounds", "holder-from-log")
def audit_regularity_sweep(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> list:
    """The n <= 30 iterate sweep over the canonical density family:

    * Hoelder-log contraction   H(log L^n psi) <= lam^(-an) H(log psi) + Omega
    * n-uniform Hoelder cap     H(L^n psi) <= cap(H(psi))
    * positivity floor          inf L^n psi >= 1/(2 ||T'||^N1) for n >= N1
    * pointwise log bounds      exp(-H) <= psi <= exp(H) at checkpoints
    * Hoelder-from-log          H(psi) <= H_log exp(H_log)
    """
    ledgers = {a: compute_ledger(m, a) for a in DEFAULT_ALPHAS}
    pointwise_ns = {0, 1, 2, 5, 10, 20, 30}
    worst_log = worst_cap = -np.inf
    worst_floor = np.inf
    worst_chain = -np.inf
    pointwise_ok = True
    for psi in density_family(resolution):
        # psi, L psi, ..., L^30 psi, each applied when first read, and its
        # plain and log profiles, each chained along its own orbit; the
        # floor's extra steps continue the same walk
        psi_orbit = orbit(m, psi)
        iterates, plain, logs = itertools.tee(itertools.islice(psi_orbit, 31), 3)
        profiles = zip(iterates, holder_profiles(plain, DEFAULT_ALPHAS),
                       holder_profiles(map(log_transform, logs), DEFAULT_ALPHAS))
        cur, h_plain0, h_log0 = next(profiles)
        caps = {}
        floors = {}
        extra = 0
        for i, a in enumerate(DEFAULT_ALPHAS):
            caps[a] = holder_iteration_cap(h_plain0[i], ledgers[a])
            floors[a] = positivity_floor(h_plain0[i], ledgers[a])
            extra = max(extra, floors[a][0] + 12 - 30)
            pointwise_ok = pointwise_ok and pointwise_log_bounds_hold(psi, h_log0[i])
        lows = []                                   # inf L^n psi, n = 1, 2, ...
        for n, (cur, h_plain, h_log) in enumerate(profiles, 1):
            for i, a in enumerate(DEFAULT_ALPHAS):
                led = ledgers[a]
                bound = led.lam ** (-a * n) * h_log0[i] + led.omega
                worst_log = max(worst_log, h_log[i] - bound)
                worst_cap = max(worst_cap, h_plain[i] - caps[a])
                worst_chain = max(
                    worst_chain, h_plain[i] - h_log[i] * math.exp(h_log[i])
                )
            if n in pointwise_ns:
                for h in h_log:
                    pointwise_ok = pointwise_ok and pointwise_log_bounds_hold(cur, h)
            lows.append(float(cur.values.min()))
        lows += [float(cur.values.min()) for cur in itertools.islice(psi_orbit, extra)]
        for n1, floor in floors.values():
            worst_floor = min(worst_floor, min(lows[n1 - 1:]) - floor)
    return [
        _gate(-worst_log, f"worst excess {worst_log:.3e}", slack=ROUNDING_SLACK),
        _gate(-worst_cap, f"worst excess {worst_cap:.3e}", slack=ROUNDING_SLACK),
        _gate(worst_floor, f"worst inf - floor = {worst_floor:.3e}"),
        Verdict(pointwise_ok, "checkpoints n in {0,1,2,5,10,20,30}"),
        _gate(-worst_chain, f"worst excess {worst_chain:.3e}", slack=ROUNDING_SLACK),
    ]


@_audit("class-entry")
def audit_class_entry(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Densities with log-Hoelder coefficient below B land in the limit
    class after N(B) steps: iterates keep H(log) <= Omega+1, stay above
    2a, and their residual (psi - a)/(1 - a) stays within cap K."""
    cos_g = cos_observable(resolution)
    ok = True
    details = []
    for a in CLASS_ALPHAS:
        led = compute_ledger(m, a)
        h_unit = holder_coefficient(cos_g, a)
        for cap in CLASS_CAPS:
            big_b = led.big_k if cap is None else cap
            c = min(0.7 * big_b / h_unit, 6.0)
            v = np.exp(c * cos_g.values)
            cur = GridDensity(v / v.mean())          # the iterate, from n = 0
            if not hoelder_class_check(cur, big_b, a):
                ok = False
                details.append(f"seed density left class B={big_b:.3g}")
                continue
            nb = led.n_of(big_b)
            steps = itertools.islice(orbit(m, cur), nb + 1, nb + 13)
            for n, cur in enumerate(steps, nb + 1):
                if not hoelder_class_check(cur, led.omega + 1.0, a):
                    ok = False
                    details.append(f"class exit at n={n}, B={big_b:.3g}, alpha={a}")
                if inf_value(cur) < 2.0 * led.a - 1e-9:
                    ok = False
                    details.append(f"floor breach at n={n}, B={big_b:.3g}, alpha={a}")
                if not hoelder_class_check(decompose(cur, led.a), led.big_k, a):
                    ok = False
                    details.append(f"residual cap breach at n={n}, alpha={a}")
    return Verdict(ok, "; ".join(details) if details else
                   f"B sweep {{5, 20, K}} x alpha {CLASS_ALPHAS}")


@_audit("invariant-density")
def audit_invariant_density(m: ExpandingMap, *,
                            resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Fixed density: residual below tol, unit mass, strict positivity with
    the class floor, Lipschitz cap (1+Omega)^2, and seed independence."""
    led = compute_ledger(m, 1.0)
    phi, diag = cached_invariant(m, resolution)
    residual = l1_distance(apply_function(m, phi), phi)
    phi2, _ = invariant_density(m, resolution=resolution,
                                psi0=cosine_density(resolution))
    seed_gap = l1_distance(phi, phi2)
    lip = lipschitz_estimate(phi)
    lip_cap = 1.05 * (1.0 + led.omega) ** 2
    checks = {
        "residual": residual <= 1e-12,
        "mass": abs(integrate(phi) - 1.0) <= 1e-12,
        "floor": inf_value(phi) >= led.lower_floor - 1e-9,
        "lipschitz": lip <= lip_cap,
        "uniqueness": seed_gap <= UNIQUENESS_TOL,
    }
    if m.d2_sup == 0.0:
        checks["lebesgue"] = float(np.abs(phi.values - 1.0).max()) <= 1e-10
    bad = [k for k, good in checks.items() if not good]
    return Verdict(
        not bad, (f"failed: {bad}; " if bad else "")
        + f"residual {residual:.2e}, seed gap {seed_gap:.2e}, "
        f"Lipschitz {lip:.3g} <= {lip_cap:.3g}, {diag.n_steps} steps",
    )


@_audit("cesaro-almost-invariance")
def audit_cesaro(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Cesaro averages of N = 1, 5, 25 terms are 2/N-almost-invariant."""
    psi = density_family(resolution)[1]          # exp(cos 2 pi x)
    worst = -np.inf
    terms = (1, 5, 25)
    for n_terms, c in zip(terms, cesaro(m, psi, terms)):
        moved = l1_distance(apply_function(m, c), c)
        worst = max(worst, moved - 2.0 / n_terms)
    return _gate(-worst, f"worst moved - 2/N = {worst:.3e}", slack=1e-10)


@_audit("coupling-deterministic")
def audit_coupling_deterministic(m: ExpandingMap, *,
                                 resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Epoch decomposition run at alpha = 1: envelopes and reconstruction at
    every step."""
    led = compute_ledger(m, 1.0)
    psi1 = cosine_density(resolution)
    phi, _ = cached_invariant(m, resolution)
    n_max = max(2 * led.n_big_k + 5, 60)
    det = deterministic_contraction_run(m, psi1, phi, 1.0, n_max)
    return Verdict(
        True, f"n_max={n_max}, worst tv excess {det.max_tv_excess():.3e}, "
        f"worst reconstruction {det.worst_reconstruction:.3e}",
    )


@_audit("coupling-monte-carlo")
def audit_coupling_monte_carlo(m: ExpandingMap, *, trials: int = 100_000, seed: int = 42,
                               resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Simulated pair at alpha = 1: mismatch envelope, coupling inequality,
    marginals."""
    psi1, psi2 = coupling_pair(resolution)
    trace = monte_carlo_coupling(m, psi1, psi2, 1.0, trials=trials, seed=seed)
    min_p = min((c["p_value"] for c in trace.chi2), default=1.0)
    return _gate(
        min_p - CHI2_P_FLOOR,
        f"{trials} trials, n_max={int(trace.ns[-1])}, "
        f"final mismatch {trace.empirical_mismatch[-1]:.4f}, "
        f"min chi2 p {min_p:.3g}", strict=True,
    )


@_audit("correlation-decay", "reduction-chain")
def audit_correlation_decay(m: ExpandingMap, *, n_max: int = 60,
                            resolution: int = DEFAULT_RESOLUTION) -> list:
    """Main decay bound plus the reduction inequality over the full
    (f, g, alpha) sweep; then the reduction link by link, from the same walk
    of each normalized observable density psi_g: psi_g obeys its Hoelder
    cap and converges inside the generic density envelope."""
    phi, _ = cached_invariant(m, resolution)
    cells = 0
    bad = []
    rates = []
    chain_ok = True
    worst_cap = -np.inf
    fs, gs = observable_family(resolution, DEFAULT_ALPHAS)
    for g_label, g, g_alphas in gs:
        reps = decay_report(m, [f for _, f in fs], g, g_alphas, n_max=n_max, phi=phi,
                            full_side_walk=True)
        chains = convergence_reports(m, normalized_observable_density(g, phi),
                                     reps[0][0].side_l1, [r.ledger for r, *_ in reps])
        for a, per_f, chain in zip(g_alphas, reps, chains, strict=True):
            g_rep = per_f[0]
            cap = (g_rep.g_holder / g_rep.g_sup + 3.0) * (2.0 + g_rep.ledger.omega) ** 2
            worst_cap = max(worst_cap, chain.psi_holder - cap)
            chain_ok = chain_ok and chain.all_ok()
            for (f_label, _), rep in zip(fs, per_f, strict=True):
                cells += 1
                if not rep.all_ok():
                    bad.append(f"{f_label}/{g_label}@alpha={a}")
                if not math.isnan(rep.fitted_rate):
                    rates.append(rep.fitted_rate)
    detail = f"{cells} cells"
    if rates:
        detail += f", fitted rates {min(rates):.3g}..{max(rates):.3g}"
    if bad:
        detail += f", failed: {bad}"
    return [Verdict(not bad, detail),
            Verdict(chain_ok and worst_cap <= ROUNDING_SLACK,
                    f"worst side-density cap excess {worst_cap:.3e}")]


@_audit("density-convergence")
def audit_density_convergence(m: ExpandingMap, *, n_max: int = 60,
                              resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """||L^n psi - phi||_1 against the 8 (1 + H) theta^(alpha n) envelope."""
    phi, _ = cached_invariant(m, resolution)
    worst = -np.inf
    ok = True
    for psi in density_family(resolution):
        for rep in density_convergence_report(m, psi, DEFAULT_ALPHAS, n_max=n_max, phi=phi):
            ok = ok and rep.all_ok()
            worst = max(worst, float((rep.l1_err - rep.bound).max()))
    return Verdict(ok, f"worst l1 - bound = {worst:.3e}")


# ---------------------------------------------------------------------------
# map-independent audits


@_audit("grid-quadrature")
def audit_quadrature(*, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Node-mean quadrature: linearity, monotonicity, the l1 triangle
    inequality, Hoelder scaling laws, and the refinement-rate check."""
    rng = _rng(13)
    checks = {}
    f, g, h = itertools.islice(_smooth_functions(rng, resolution), 3)
    lin = integrate(GridFunction(2.0 * f.values - 3.0 * g.values)) \
        - (2.0 * integrate(f) - 3.0 * integrate(g))
    checks["linearity"] = abs(lin) <= 1e-13
    checks["monotonicity"] = integrate(f) <= integrate(
        GridFunction(f.values + np.abs(g.values)))
    tri = l1_distance(f, h) - (l1_distance(f, g) + l1_distance(g, h))
    checks["triangle"] = tri <= 1e-14
    h1 = holder_coefficient(f, 0.5)
    checks["scaling"] = abs(holder_coefficient(GridFunction(-2.5 * f.values), 0.5)
                            - 2.5 * h1) <= 1e-12 * max(h1, 1.0)
    checks["shift"] = abs(holder_coefficient(GridFunction(f.values + 7.0), 0.5)
                          - h1) <= 1e-12 * max(h1, 1.0)
    errs = []
    for m_res in (512, 1024, 2048):
        x = np.arange(m_res) / m_res
        d0 = np.minimum(x, 1.0 - x)
        errs.append(abs(integrate(GridFunction(d0 ** 2)) - 1.0 / 12.0))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    checks["refinement"] = 2.5 <= r1 <= 6.0 and 2.5 <= r2 <= 6.0
    bad = [k for k, good in checks.items() if not good]
    return Verdict(not bad, f"failed: {bad}" if bad else
                   f"refinement ratios {r1:.2f}, {r2:.2f}")


def _ks_uniform(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the draws u from uniform on [0, 1):
    at the i-th smallest draw x_i, the empirical CDF steps from (i-1)/n to
    i/n, so the distance is max(i/n - x_i, x_i - (i-1)/n) over i."""
    x = np.sort(u)
    n = x.size
    return float(max((np.arange(1.0, n + 1) / n - x).max(),
                     (x - np.arange(0.0, n) / n).max()))


@_audit("sampling")
def audit_sampling(*, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Inverse-CDF sampling of 100000 draws: uniform KS distance, point-mass
    localization, and bit-reproducibility under a fixed seed."""
    u = sample(uniform_density(resolution), _rng(14), 100_000)
    ks = _ks_uniform(u)
    v = np.zeros(resolution)
    v[resolution // 3] = resolution
    pt = sample(GridDensity(v), _rng(15), 1000)
    loc = float(circle_distance(pt, (resolution // 3) / resolution).max())
    again = sample(uniform_density(resolution), _rng(14), 100_000)
    repro = bool(np.array_equal(u, again))
    ok = ks < 0.01 and loc <= 1.0 / resolution and repro
    return Verdict(ok, f"KS {ks:.4f}, point-mass radius {loc:.2e}, "
                   f"reproducible={repro}")


@_audit("constants-reference")
def audit_constants_reference() -> AuditResult:
    """The zero-curvature column of the ledger in closed form, plus the
    range invariants every ledger must satisfy."""
    led = compute_ledger(linear_map(2), 1.0)
    column = {
        "omega": led.omega == 0.0,
        "a": abs(led.a - math.exp(-1.0) / 2.0) <= 1e-15,
        "K": abs(led.big_k - math.exp(4.0)) <= 1e-12,
        "N_K": led.n_big_k == 6,
        "C": led.c_corr == 384.0,
        "theta_paper": abs(led.theta_paper
                           - (1.0 - math.exp(-3.0)) ** (math.log(2.0) / 4.0)) <= 1e-15,
        "floor": led.lower_floor == 2.0 * led.a,
        "N_of_1": led.n_of(1.0) == 1 and led.n_of(0.5) == 1,
    }
    ranges = True
    for m in standard_maps():
        for a in DEFAULT_ALPHAS:
            led = compute_ledger(m, a)
            ranges = ranges and (
                led.omega >= 0.0 and 0.0 < led.a <= 0.5 and led.big_k > 1.0
                and 0.0 < led.theta_exact < 1.0 and 0.0 < led.theta_paper < 1.0
                and led.d_exact <= 4.0 and led.c_corr >= 384.0 and led.n_big_k >= 1
            )
    bad = [k for k, good in column.items() if not good]
    ok = not bad and ranges
    return Verdict(ok, f"failed: {bad}" if bad else "closed-form column reproduced")


@_audit("constants-monotonic")
def audit_constants_monotonic() -> AuditResult:
    """Omega increases along the perturbation sweep (d2_sup up, lambda down)."""
    eps = np.linspace(0.01, 0.1, 10)
    maps = [perturbed_map(2, float(e)) for e in eps]
    omegas = [compute_ledger(pm, 1.0).omega for pm in maps]
    lams = [pm.lam for pm in maps]
    ok = bool(np.all(np.diff(omegas) > 0.0) and np.all(np.diff(lams) < 0.0))
    return Verdict(ok, f"omega {omegas[0]:.3g} -> {omegas[-1]:.3g}")


# ---------------------------------------------------------------------------
# aggregate runner


def run_all(m: ExpandingMap, *, seed: int = 42, trials: int = 100_000,
            resolution: int = DEFAULT_RESOLUTION, n_max: int = 60) -> list:
    """Every registered audit, one after another in registration order: the
    per-map ones on ``m``, then the map-independent ones.  Each gets only
    the arguments its keyword-only parameters name (its seeds are otherwise
    its own) and is called through its module attribute, so a patched
    attribute runs."""
    given = {"seed": seed, "trials": trials, "resolution": resolution, "n_max": n_max}
    results = []
    for attr, count, takes, per_map in _AUDITS:
        args = (m,) if per_map else ()
        out = globals()[attr](*args, **{k: given[k] for k in takes})
        results += out if count > 1 else [out]
    return results
