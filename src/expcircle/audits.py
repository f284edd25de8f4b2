"""Quantitative audit sweeps shared by the ``verify`` subcommand and tests.

Each audit exercises one guaranteed property of the library on a concrete
map.  Its body returns only the Parts of its results, each one named
comparison at its worst case over the audit's sweep.  ``_audit`` registers
each body in run order, times it, and derives each result's verdict,
margin, tightest part and detail from its parts (``_result``), the one
place a verdict is decided.  Audits are pure functions of their seeds, so
results are reproducible; the tolerances pinned here are the ones quoted
by the acceptance tests.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import time
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
from .coupling_lab import (CHI2_P_FLOOR, DEFAULT_SEED, DEFAULT_TRIALS,
                           DETERMINISTIC_SLACK, RECONSTRUCTION_TOL, decompose,
                           deterministic_contraction_run, monte_carlo_coupling)
from .correlation_suite import (
    BOUND_SLACK,
    CONVERGENCE_SLACK,
    DEFAULT_N_MAX,
    REDUCTION_SLACK,
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
    hoelder_log_bound,
    holder_iteration_cap,
    pointwise_log_excess,
    positivity_floor,
)
from .transfer_operator import (
    apply_function,
    cached_invariant,
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
# The range invariants of every ledger: (name, field, op, bound).
LEDGER_RANGES = (
    ("Omega", "omega", ">=", 0.0), ("a", "a", ">", 0.0), ("a", "a", "<=", 0.5),
    ("K", "big_k", ">", 1.0), ("theta_exact", "theta_exact", ">", 0.0),
    ("theta_exact", "theta_exact", "<", 1.0), ("theta_paper", "theta_paper", ">", 0.0),
    ("theta_paper", "theta_paper", "<", 1.0), ("D_exact", "d_exact", "<=", 4.0),
    ("C", "c_corr", ">=", 384.0), ("N_K", "n_big_k", ">=", 1),
)

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


class Part(NamedTuple):
    """One comparison of a result at its worst case over its audit's sweep,
    ``measured op bound``, where op is <=, <, >= or >, and the bound is
    widened by ``slack``: raised for < and <=, lowered for > and >=."""
    label: str
    measured: float
    bound: float
    slack: float = 0.0
    op: str = "<="

    @property
    def margin(self) -> float:
        """_margins of the part: 0 or more exactly where it holds."""
        return float(_margins(self.measured, self.bound, self.slack, self.op))

    def __str__(self) -> str:
        widened = f" {'+' if self.op[0] == '<' else '-'} {self.slack:.2g}" if self.slack else ""
        return f"{self.label} = {self.measured:.3e} {self.op} {self.bound:.4g}{widened}"


def _margins(measured, bound, slack, op):
    """Elementwise, the threshold bound + slack less measured for <= and <,
    measured less the threshold bound - slack for >= and >; a strict op
    takes the float next to it on the passing side (x < t exactly where x
    <= nextafter(t, -inf)).  A rounded difference has the exact one's sign,
    so this is 0 or more exactly where the comparison holds.  It is -inf,
    a failure, where an operand or the difference is NaN or infinite."""
    upper = op[0] == "<"
    threshold = np.add(bound, slack) if upper else np.subtract(bound, slack)
    if len(op) == 1:
        threshold = np.nextafter(threshold, -np.inf if upper else np.inf)
    margin = np.subtract(threshold, measured) if upper else np.subtract(measured, threshold)
    finite = np.isfinite(margin) & np.isfinite(measured) & np.isfinite(bound) & np.isfinite(slack)
    return np.where(finite, margin, -np.inf)


def _worst(label: str, measured, bound, slack: float = 0.0, op: str = "<=") -> Part:
    """The Part of the cell with the smallest margin, the first of equal
    ones, of the comparison of ``measured`` against ``bound`` cell by cell
    (each a scalar or a sequence, broadcast against each other)."""
    measured, bound = np.broadcast_arrays(np.asarray(measured, dtype=float),
                                          np.asarray(bound, dtype=float))
    i = np.argmin(_margins(measured, bound, slack, op))
    return Part(label, float(measured.flat[i]), float(bound.flat[i]), slack, op)


@dataclass(frozen=True)
class AuditResult:
    name: str
    ok: bool
    detail: str = ""
    margin: float | None = None     # the tightest part's if finite, else None
    parts: tuple = ()               # the Parts all of the above derive from
    body: str = ""                  # the audit function that measured them
    seconds: float = 0.0            # that body's wall time, shared by its results

    def __bool__(self) -> bool:
        return self.ok

    @property
    def tightest(self) -> Part | None:
        """The part with the smallest margin, one that fails if any does."""
        return min(self.parts, key=lambda p: p.margin, default=None)


def _result(name: str, parts, body: str, seconds: float) -> AuditResult:
    """The result ``name`` of its parts: it passes when every part holds,
    its margin is the tightest part's, and its detail shows every part that
    fails, else the tightest.  A violation raised instead fails it, with no
    margin and the violation's message as its detail."""
    if isinstance(parts, Violation):
        return AuditResult(name, False, str(parts), body=body, seconds=seconds)
    margins = [p.margin for p in parts]
    failed = [p for p, margin in zip(parts, margins) if margin < 0.0]
    margin = min(margins)
    tight = parts[margins.index(margin)]
    if failed:
        detail = "failed: " + "; ".join(map(str, failed))
    else:
        detail = (f"tightest of {len(parts)}: " if len(parts) > 1 else "") + str(tight)
    return AuditResult(name, not failed, detail, margin if math.isfinite(margin) else None,
                       tuple(parts), body, seconds)


def standard_maps() -> list:
    """The five concrete maps every sweep runs on."""
    return [linear_map(2), linear_map(3), *(perturbed_map(2, eps) for eps in (0.02, 0.05, 0.1))]


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
    return [GridDensity(v / v.mean()) for v in
            (1.0 + 0.5 * cos, np.exp(cos), np.exp(0.3 * cos + 0.2 * np.sin(4.0 * np.pi * x)))]


def cosine_density(resolution: int = DEFAULT_RESOLUTION) -> GridDensity:
    """exp(0.3 cos 2 pi x), normalized: the second start of the invariant
    density and the first density of the coupling pair."""
    v = np.exp(0.3 * cos_observable(resolution).values)
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


# (attribute, result count, run_all arguments taken, per-map), in run order.
_AUDITS: list = []
# The arguments run_all forwards to the audits that take them.
_FORWARDED = ("seed", "trials", "resolution", "n_max")


def _audit(*names: str):
    """Register an audit body that returns the Parts of each result name: a
    list of them for one name, one list per name for several.  The body's
    keyword-only parameters are the run_all arguments it receives, each one
    of _FORWARDED (any other raises TypeError); a positional parameter, the
    map, makes it per-map.  The registered function times the body and
    returns its AuditResults (_result), a list for several names; the
    body's return annotation is that of the registered function."""
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
                out = out if len(names) > 1 else [out]
            except Violation as exc:
                out = [exc] * len(names)
            seconds = time.perf_counter() - t0
            results = [_result(name, parts, body.__name__, seconds)
                       for name, parts in zip(names, out, strict=True)]
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
    lip = float((circle_distance(evaluate(m, xs), evaluate(m, ys))
                 - m.d1_sup * circle_distance(xs, ys)).max())
    return [Part("min sampled T'", dmin, cert["lambda"], op=">="),
            Part("worst forward-Lipschitz excess", lip, 1e-12)]


@_audit("second-derivative-fd")
def audit_second_derivative(m: ExpandingMap) -> AuditResult:
    """T'' agrees with a central finite difference of T' (h=1e-5, tol 1e-5)."""
    xs = _rng(4).random(100)
    h = 1e-5
    fd = (m.dlift(xs + h) - m.dlift(xs - h)) / (2.0 * h)
    worst = float(np.abs(fd - m.d2lift(xs)).max())
    return [Part("worst |fd - T''| over 100 points", worst, 0.0, 1e-5)]


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
        # np.maximum, unlike max, keeps a NaN, which then fails the part
        worst = np.maximum(worst, circle_distance(tu, pulled[end.path[:-1]]).max())
        if len(end.path) == 1:          # arcs within one branch, no wrap arc
            excess = m.lam * (np.diff(end.u) % 1.0) - np.diff(tu) % 1.0
            worst_arc = np.maximum(worst_arc, excess.max())
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
        [Part(f"worst lambda |J| - |T(J)| over {arcs} arcs", worst_arc, 0.0,
              8.0 * np.spacing(top) + (m.lam + 1.5) * np.spacing(1.0))],
        [Part(f"worst one-step return distance over {len(nodes) * 64} node points",
              worst, 0.0, _step_error(m) + 2.0 * np.spacing(1.0))],
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
    grids = np.array([g.values for g in
                      itertools.islice(orbit(m, GridFunction(np.ones(512))), 1, 4)])
    worst_mass = float(np.abs(branch.mean(axis=1) - 1.0).max())
    worst_route = float(np.abs(branch - grids).max())
    if m.d2_sup == 0.0:
        worst_route = np.maximum(worst_route, np.abs(branch - 1.0).max())
    return [Part("worst arc band excess", worst_arc, 0.0, slack),
            Part("mass defect", worst_mass, 1e-10),
            Part("route mismatch", worst_route, 1e-9)]


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
        worst_gap = np.maximum(worst_gap, (end.gap - rhs).max())
        ratio = end.du / end.dv
        worst_band = np.maximum(worst_band, np.maximum(ratio - hi, lo - ratio).max())
    cells = f"over {len(paths) * 1000} pair-path cells"
    # The pair slack: a lifted gap |u_n - v_n| is off by 2 r / (lambda - 1),
    # at most 5.4e-12 (perturbed{2,0.1}, lambda 1.372).  Measured worst
    # lhs - rhs: 1.8e-16 and 2.3e-16 on linear{2} and {3}, where the bound
    # is attained, and -2.5e-7 to -7.9e-6 on the perturbed maps.
    return [
        [Part(f"worst lhs - rhs {cells}", worst_gap, 0.0,
              2.0 * _step_error(m) / (m.lam - 1.0))],
        [Part(f"worst band excess {cells}", worst_band, 0.0)],
    ]


@_audit("operator-mass", "operator-positivity", "operator-contraction")
def audit_operator_identities(m: ExpandingMap, *,
                              resolution: int = DEFAULT_RESOLUTION) -> list:
    """Mass conservation (raw, pre-renormalization), exact positivity, and
    L1 contraction of single applications over 100 random densities."""
    rng = _rng(11)
    drifts, lows, growths = [], [], []
    prev = None
    for psi in itertools.islice(_smooth_densities(rng, resolution), 100):
        raw = apply_function(m, psi)
        drifts.append(abs(integrate(raw) - integrate(psi)))
        lows.append(float(raw.values.min()))
        if prev is not None:
            u = GridFunction(psi.values - prev.values)
            growths.append(float(np.abs(apply_function(m, u).values).mean())
                           - float(np.abs(u.values).mean()))
        prev = psi
    # positivity must also hold for rough (non-smooth) nonnegative input
    for _ in range(10):
        v = np.abs(rng.normal(size=resolution)) + 1e-9
        lows.append(float(apply_function(m, GridDensity(v / v.mean())).values.min()))
    return [[_worst("raw mass drift over 100 densities", drifts, 0.0, MASS_TOL)],
            [_worst("output node value", lows, 0.0, op=">=")],
            [_worst("||Lu||_1 - ||u||_1", growths, 0.0, MASS_TOL)]]


@_audit("operator-duality")
def audit_duality(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """int (f o T) g dm == int f (L g) dm up to interpolation error, over 20
    random pairs."""
    rng = _rng(12)
    tx = evaluate(m, np.arange(resolution) / resolution)
    excess = []
    inputs = _smooth_functions(rng, resolution)
    for f, g in itertools.islice(zip(inputs, inputs), 20):
        lhs = float(np.mean(f.evaluate(tx) * g.values))
        rhs = integrate(GridFunction(f.values * apply_function(m, g).values))
        excess.append(abs(lhs - rhs) - DUALITY_REL_TOL * sup_norm(f) * sup_norm(g))
    return [_worst("|defect| - tol over 20 pairs", excess, 0.0)]


@_audit("sup-c1-bounds")
def audit_sup_c1_bounds(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """sup and C1-size growth caps (1+Omega), (1+Omega)^2 for the iterates
    n = 1, 5, 15, 30, each with check_growth_bounds' 2% slack."""
    sup_lhs, sup_cap, c1_lhs, c1_cap = np.array([
        row for _, f in _test_functions(resolution, 77)
        for row in check_growth_bounds(m, f, (1, 5, 15, 30))]).T
    return [_worst("sup |L^n f| against 1.02 (1 + Omega) sup |f|", sup_lhs, sup_cap),
            _worst("C1 size of L^n f against 1.02 (1 + Omega)^2 that of f", c1_lhs, c1_cap)]


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
    log_ex, cap_ex, floor_ex, pointwise_ex, chain_ex = [], [], [], [], []   # per cell
    for psi in density_family(resolution):
        # psi, L psi, ..., L^30 psi, each applied when first read, and its
        # plain and log profiles, each chained along its own orbit; the
        # floor's extra steps continue the same walk
        psi_orbit = orbit(m, psi)
        iterates, plain, logs = itertools.tee(itertools.islice(psi_orbit, 31), 3)
        profiles = zip(iterates, holder_profiles(plain, DEFAULT_ALPHAS),
                       holder_profiles(map(log_transform, logs), DEFAULT_ALPHAS))
        cur, h_plain0, h_log0 = next(profiles)
        caps = [holder_iteration_cap(h, ledgers[a]) for h, a in zip(h_plain0, DEFAULT_ALPHAS)]
        floors = [positivity_floor(h, ledgers[a]) for h, a in zip(h_plain0, DEFAULT_ALPHAS)]
        extra = max(0, *(n1 + 12 - 30 for n1, _ in floors))
        pointwise_ex += [pointwise_log_excess(psi, h) for h in h_log0]
        lows = []                                   # inf L^n psi, n = 1, 2, ...
        for n, (cur, h_plain, h_log) in enumerate(profiles, 1):
            for i, a in enumerate(DEFAULT_ALPHAS):
                led = ledgers[a]
                bound = led.lam ** (-a * n) * h_log0[i] + led.omega
                log_ex.append(h_log[i] - bound)
                cap_ex.append(h_plain[i] - caps[i])
                chain_ex.append(h_plain[i] - h_log[i] * math.exp(h_log[i]))
            if n in pointwise_ns:
                pointwise_ex += [pointwise_log_excess(cur, h) for h in h_log]
            lows.append(float(cur.values.min()))
        lows += [float(cur.values.min()) for cur in itertools.islice(psi_orbit, extra)]
        floor_ex += [np.min(lows[n1 - 1:]) - floor for n1, floor in floors]
    return [
        [_worst("worst H(log L^n psi) - (lambda^(-alpha n) H(log psi) + Omega)",
                log_ex, 0.0, ROUNDING_SLACK)],
        [_worst("worst H(L^n psi) - cap(H(psi))", cap_ex, 0.0, ROUNDING_SLACK)],
        [_worst("worst inf L^n psi - floor, n >= N1", floor_ex, 0.0, op=">=")],
        [_worst("worst excess of L^n psi over [exp(-H), exp(H)] at n in "
                "{0,1,2,5,10,20,30}", pointwise_ex, 0.0)],
        [_worst("worst H(L^n psi) - H_log exp(H_log)", chain_ex, 0.0, ROUNDING_SLACK)],
    ]


@_audit("class-entry")
def audit_class_entry(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Densities with log-Hoelder coefficient below B land in the limit
    class after N(B) steps: iterates keep H(log) <= Omega+1, stay above
    2a, and their residual (psi - a)/(1 - a) stays within cap K."""
    cos_g = cos_observable(resolution)
    seeds, kept, floors, residuals = [], [], [], []      # (measured, bound) cells
    for a in CLASS_ALPHAS:
        led = compute_ledger(m, a)
        h_unit = holder_coefficient(cos_g, a)
        for cap in CLASS_CAPS:
            big_b = led.big_k if cap is None else cap
            c = min(0.7 * big_b / h_unit, 6.0)
            v = np.exp(c * cos_g.values)
            psi = GridDensity(v / v.mean())
            seeds.append((hoelder_log_bound(psi, big_b, a), big_b))
            nb = led.n_of(big_b)
            for cur in itertools.islice(orbit(m, psi), nb + 1, nb + 13):
                kept.append((hoelder_log_bound(cur, led.omega + 1.0, a), led.omega + 1.0))
                floors.append((inf_value(cur), 2.0 * led.a))
                residuals.append((hoelder_log_bound(decompose(cur, led.a), led.big_k, a),
                                  led.big_k))
    return [_worst(f"H(log psi) against B, B in {{5, 20, K}} x alpha in {CLASS_ALPHAS}",
                   *zip(*seeds), ROUNDING_SLACK),
            _worst("H(log L^n psi) against Omega + 1, N(B) < n <= N(B) + 12",
                   *zip(*kept), ROUNDING_SLACK),
            _worst("inf L^n psi against 2a", *zip(*floors), 1e-9, ">="),
            _worst("H(log residual) against K", *zip(*residuals), ROUNDING_SLACK)]


@_audit("invariant-density")
def audit_invariant_density(m: ExpandingMap, *,
                            resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Fixed density: residual below tol, unit mass, strict positivity with
    the class floor, Lipschitz cap (1+Omega)^2, and seed independence."""
    led = compute_ledger(m, 1.0)
    phi, diag = cached_invariant(m, resolution)
    phi2, _ = invariant_density(m, resolution=resolution, psi0=cosine_density(resolution))
    parts = [
        Part(f"residual ||L phi - phi||_1 after {diag.n_steps} steps",
             l1_distance(apply_function(m, phi), phi), 1e-12),
        Part("mass defect |int phi - 1|", abs(integrate(phi) - 1.0), 1e-12),
        Part("inf phi against exp(-(Omega + 1))", inf_value(phi), led.lower_floor, 1e-9, ">="),
        Part("Lipschitz constant against 1.05 (1 + Omega)^2", lipschitz_estimate(phi),
             1.05 * (1.0 + led.omega) ** 2),
        Part("seed gap ||phi - phi'||_1", l1_distance(phi, phi2), UNIQUENESS_TOL),
    ]
    if m.d2_sup == 0.0:
        parts.append(Part("Lebesgue: sup |phi - 1|", float(np.abs(phi.values - 1.0).max()),
                          1e-10))
    return parts


@_audit("cesaro-almost-invariance")
def audit_cesaro(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Cesaro averages of N = 1, 5, 25 terms are 2/N-almost-invariant."""
    psi = density_family(resolution)[1]          # exp(cos 2 pi x)
    terms = (1, 5, 25)
    moved = [l1_distance(apply_function(m, c), c) - 2.0 / n_terms
             for n_terms, c in zip(terms, cesaro(m, psi, terms))]
    return [_worst("||L c - c||_1 - 2/N over N = 1, 5, 25", moved, 0.0, 1e-10)]


@_audit("coupling-deterministic")
def audit_coupling_deterministic(m: ExpandingMap, *,
                                 resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Epoch decomposition run at alpha = 1: envelopes and reconstruction at
    every step."""
    led = compute_ledger(m, 1.0)
    phi, _ = cached_invariant(m, resolution)
    n_max = max(2 * led.n_big_k + 5, 60)
    det = deterministic_contraction_run(m, cosine_density(resolution), phi, 1.0, n_max)
    return [_worst(f"tv against 2 (1 - a)^k, n <= {n_max}", det.tv_true,
                   det.bound_coupling, DETERMINISTIC_SLACK),
            _worst(f"tv against D theta^(alpha n), n <= {n_max}", det.tv_true,
                   det.bound_theta, DETERMINISTIC_SLACK),
            Part("worst epoch reconstruction error", det.worst_reconstruction,
                 RECONSTRUCTION_TOL)]


@_audit("coupling-monte-carlo")
def audit_coupling_monte_carlo(m: ExpandingMap, *, trials: int = DEFAULT_TRIALS,
                               seed: int = DEFAULT_SEED,
                               resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Simulated pair at alpha = 1: mismatch envelope, coupling inequality,
    marginals."""
    psi1, psi2 = coupling_pair(resolution)
    trace = monte_carlo_coupling(m, psi1, psi2, 1.0, trials=trials, seed=seed)
    return [_worst(f"mismatch against (1 - a)^k, {trials} trials, n <= {int(trace.ns[-1])}",
                   trace.empirical_mismatch, trace.bound_coupling / 2.0, trace.slack),
            _worst("tv against twice the mismatch", trace.tv_true,
                   2.0 * trace.empirical_mismatch, trace.slack),
            _worst("marginal chi2 p-value", [c["p_value"] for c in trace.chi2],
                   CHI2_P_FLOOR, op=">")]


@_audit("correlation-decay", "reduction-chain")
def audit_correlation_decay(m: ExpandingMap, *, n_max: int = DEFAULT_N_MAX,
                            resolution: int = DEFAULT_RESOLUTION) -> list:
    """Main decay bound plus the reduction inequality over the full
    (f, g, alpha) sweep; then the reduction link by link, from the same walk
    of each normalized observable density psi_g: psi_g obeys its Hoelder
    cap and converges inside the generic density envelope."""
    phi, _ = cached_invariant(m, resolution)
    reps, chains, cap_ex = [], [], []
    fs, gs = observable_family(resolution, DEFAULT_ALPHAS)
    for _, g, g_alphas in gs:
        per_alpha = decay_report(m, [f for _, f in fs], g, g_alphas, n_max=n_max,
                                 full_side_walk=True)
        g_chains = convergence_reports(normalized_observable_density(g, phi),
                                       per_alpha[0][0].side_l1,
                                       [r.ledger for r, *_ in per_alpha])
        for per_f, chain in zip(per_alpha, g_chains, strict=True):
            g_rep = per_f[0]
            cap = (g_rep.g_holder / g_rep.g_sup + 3.0) * (2.0 + g_rep.ledger.omega) ** 2
            cap_ex.append(chain.psi_holder - cap)
            reps += per_f
        chains += g_chains
    corr = np.concatenate([np.abs(rep.corr) for rep in reps])
    return [
        [_worst(f"|corr_n| against C sup|f| (sup|g| + H(g)) theta^(alpha n), "
                f"{len(reps)} (f, g, alpha) cells", corr,
                np.concatenate([rep.bound for rep in reps]), BOUND_SLACK),
         _worst("|corr_n| against 3 sup|f| sup|g| ||L^n psi_g - phi||_1", corr,
                np.concatenate([rep.reduction_bound for rep in reps]), REDUCTION_SLACK)],
        [_worst("worst H(psi_g) - its cap", cap_ex, 0.0, ROUNDING_SLACK),
         _worst("||L^n psi_g - phi||_1 against 8 (1 + H) theta^(alpha n)",
                np.concatenate([c.l1_err for c in chains]),
                np.concatenate([c.bound for c in chains]), CONVERGENCE_SLACK)],
    ]


@_audit("density-convergence")
def audit_density_convergence(m: ExpandingMap, *, n_max: int = DEFAULT_N_MAX,
                              resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """||L^n psi - phi||_1 against the 8 (1 + H) theta^(alpha n) envelope."""
    reps = [rep for psi in density_family(resolution)
            for rep in density_convergence_report(m, psi, DEFAULT_ALPHAS, n_max=n_max)]
    return [_worst("||L^n psi - phi||_1 against 8 (1 + H) theta^(alpha n)",
                   np.concatenate([rep.l1_err for rep in reps]),
                   np.concatenate([rep.bound for rep in reps]), CONVERGENCE_SLACK)]


# ---------------------------------------------------------------------------
# map-independent audits


@_audit("grid-quadrature")
def audit_quadrature(*, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Node-mean quadrature: linearity, monotonicity, the l1 triangle
    inequality, Hoelder scaling laws, and the refinement-rate check."""
    f, g, h = itertools.islice(_smooth_functions(_rng(13), resolution), 3)
    lin = integrate(GridFunction(2.0 * f.values - 3.0 * g.values)) \
        - (2.0 * integrate(f) - 3.0 * integrate(g))
    h1 = holder_coefficient(f, 0.5)
    nodes = [np.arange(m_res) / m_res for m_res in (512, 1024, 2048)]
    errs = [abs(integrate(GridFunction(np.minimum(x, 1.0 - x) ** 2)) - 1.0 / 12.0)
            for x in nodes]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    return [
        Part("linearity defect", abs(lin), 1e-13),
        Part("int f against int (f + |g|)", integrate(f),
             integrate(GridFunction(f.values + np.abs(g.values)))),
        Part("l1 triangle excess", l1_distance(f, h) - (l1_distance(f, g) + l1_distance(g, h)),
             1e-14),
        Part("|H(-2.5 f) - 2.5 H(f)|", abs(holder_coefficient(GridFunction(-2.5 * f.values), 0.5)
                                           - 2.5 * h1), 1e-12 * max(h1, 1.0)),
        Part("|H(f + 7) - H(f)|", abs(holder_coefficient(GridFunction(f.values + 7.0), 0.5)
                                      - h1), 1e-12 * max(h1, 1.0)),
        _worst("refinement error ratio, M = 512 to 2048", ratios, 2.5, op=">="),
        _worst("refinement error ratio, M = 512 to 2048", ratios, 6.0),
    ]


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
    v = np.zeros(resolution)
    v[resolution // 3] = resolution
    pt = sample(GridDensity(v), _rng(15), 1000)
    again = sample(uniform_density(resolution), _rng(14), 100_000)
    return [Part("KS distance from uniform", _ks_uniform(u), 0.01, op="<"),
            Part("point-mass radius",
                 float(circle_distance(pt, (resolution // 3) / resolution).max()),
                 1.0 / resolution),
            Part("draws that differ on a replay", np.count_nonzero(u != again), 0)]


@_audit("constants-reference")
def audit_constants_reference() -> AuditResult:
    """The zero-curvature column of the ledger (linear{2} at alpha 1) in
    closed form, plus the LEDGER_RANGES every ledger must satisfy, on the
    standard maps at DEFAULT_ALPHAS."""
    led = compute_ledger(linear_map(2), 1.0)
    ledgers = [compute_ledger(m, a) for m in standard_maps() for a in DEFAULT_ALPHAS]
    return [
        Part("|Omega|", abs(led.omega), 0.0),
        Part("|a - e^-1 / 2|", abs(led.a - math.exp(-1.0) / 2.0), 1e-15),
        Part("|K - e^4|", abs(led.big_k - math.exp(4.0)), 1e-12),
        Part("|N_K - 6|", abs(led.n_big_k - 6), 0),
        Part("|C - 384|", abs(led.c_corr - 384.0), 0.0),
        Part("|theta_paper - (1 - e^-3)^(ln 2 / 4)|",
             abs(led.theta_paper - (1.0 - math.exp(-3.0)) ** (math.log(2.0) / 4.0)), 1e-15),
        Part("|floor - 2a|", abs(led.lower_floor - 2.0 * led.a), 0.0),
        Part("|N(B) - 1| at B = 1, 1/2", max(abs(led.n_of(b) - 1) for b in (1.0, 0.5)), 0),
        *(_worst(f"{name} {op} {bound:g} over {len(ledgers)} ledgers",
                 [getattr(led, field) for led in ledgers], bound, op=op)
          for name, field, op, bound in LEDGER_RANGES),
    ]


@_audit("constants-monotonic")
def audit_constants_monotonic() -> AuditResult:
    """Omega increases along the perturbation sweep (d2_sup up, lambda down)."""
    eps = np.linspace(0.01, 0.1, 10)
    maps = [perturbed_map(2, float(e)) for e in eps]
    omegas = [compute_ledger(pm, 1.0).omega for pm in maps]
    return [_worst("step of Omega along eps = 0.01..0.1", np.diff(omegas), 0.0, op=">"),
            _worst("step of lambda along it", np.diff([pm.lam for pm in maps]), 0.0, op="<")]


# ---------------------------------------------------------------------------
# aggregate runner


def run_all(m: ExpandingMap, *, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS,
            resolution: int = DEFAULT_RESOLUTION, n_max: int = DEFAULT_N_MAX) -> list:
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
