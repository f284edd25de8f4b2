"""Quantitative audit sweeps shared by the ``verify`` subcommand and tests.

Each audit exercises one guaranteed property of the library on a concrete
map and returns AuditResult records.  Audits are pure functions of their
seeds, so results are reproducible; the tolerances pinned here are the
ones quoted by the acceptance tests.  ``_audit`` registers each audit in
run order and times it, fails it on a violation and builds its results.
"""
from __future__ import annotations

import functools
import math
import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.stats

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
    decay_report,
    density_convergence_report,
    normalized_observable_density,
)
from .density_grid import (
    DEFAULT_RESOLUTION,
    GridDensity,
    GridFunction,
    holder_coefficient,
    holder_profile,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    sample,
    sup_norm,
    uniform_density,
)
from .errors import VIOLATIONS
from .inverse_branches import (
    BranchId,
    _solve_lift,
    inverse_weight_sum,
    preimages,
    walk,
)
from .system_constants import (
    ROUNDING_SLACK,
    compute_ledger,
    hoelder_class_check,
    holder_iteration_cap,
    pointwise_log_bounds_hold,
    positivity_floor,
)
from .transfer_operator import (
    apply,
    apply_function,
    cesaro,
    check_growth_bounds,
    invariant_density,
)

DEFAULT_ALPHAS = (0.3, 0.5, 1.0)
CLASS_ALPHAS = (0.5, 1.0)
CLASS_CAPS = (5.0, 20.0, None)           # None -> the ledger's K
PAIR_SLACK = 1e-10
DISTORTION_SLACK = 1e-9
MASS_TOL = 1e-10
DUALITY_REL_TOL = 5e-3
UNIQUENESS_TOL = 1e-8


@dataclass(frozen=True)
class AuditResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0
    margin: float | None = None     # bound minus measured; None if compound

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
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=seed))


def smooth_density(seed, resolution: int = DEFAULT_RESOLUTION, modes: int = 8,
                   scale: float = 0.5) -> GridDensity:
    """Random density with a trigonometric-polynomial log.

    Smoothness keeps node-mean quadrature errors at machine scale, which
    the 1e-10 identity audits rely on; rougher inputs are used only where
    no quadrature identity is asserted.
    """
    rng = _rng(seed)
    k = np.arange(1, modes + 1)
    amp = scale / (1.0 + k) ** 2
    a = rng.normal(size=modes) * amp
    b = rng.normal(size=modes) * amp
    x = np.arange(resolution) / resolution
    phase = 2.0 * np.pi * np.outer(k, x)
    logv = a @ np.cos(phase) + b @ np.sin(phase)
    v = np.exp(logv)
    return GridDensity(v / v.mean())


def smooth_function(seed, resolution: int = DEFAULT_RESOLUTION,
                    modes: int = 6) -> GridFunction:
    """Random signed trigonometric polynomial (observable-shaped)."""
    rng = _rng(seed)
    k = np.arange(1, modes + 1)
    amp = 1.0 / (1.0 + k)
    a = rng.normal(size=modes) * amp
    b = rng.normal(size=modes) * amp
    x = np.arange(resolution) / resolution
    phase = 2.0 * np.pi * np.outer(k, x)
    return GridFunction(a @ np.cos(phase) + b @ np.sin(phase))


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


def _test_functions(resolution: int, ripple_seed: int) -> list:
    """(label, f): cos 2 pi x, a tanh step of it and a seeded ripple."""
    cos = cos_observable(resolution)
    return [
        ("cos", cos),
        ("step", GridFunction(0.5 * (1.0 + np.tanh(cos.values / 0.15)))),
        ("ripple", smooth_function(ripple_seed, resolution)),
    ]


def observable_family(resolution: int, alpha: float):
    """(label, f) test observables plus (label, g) Hoelder observables."""
    fs = _test_functions(resolution, 2024)
    x = np.arange(resolution) / resolution
    return fs, [fs[0], ("cusp", GridFunction(np.minimum(x, 1.0 - x) ** alpha))]


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
    """One result as an audit body measured it; ``margin`` is bound minus
    measured (>= 0 passes), None where the verdict is not one comparison."""
    ok: bool
    detail: str
    margin: float | None = None


def _gate(margin: float, detail: str, slack: float = 0.0, strict: bool = False) -> Verdict:
    """A single numeric comparison: pass at margin >= -slack (> if strict)."""
    return Verdict(margin > -slack if strict else margin >= -slack, detail, float(margin))


# (attribute, result count, run_all arguments taken, per-map), in run order.
_AUDITS: list = []


def _audit(*names: str, takes: tuple = (), per_map: bool = True):
    """Register an audit body that returns one Verdict per result name (a
    bare Verdict for one) and receives the run_all arguments it ``takes``,
    after the map if per-map.  The registered function times the body,
    fails every name on a violation and returns the AuditResults, a list
    for several names with the wall time on the first; the body's return
    annotation is that of the registered function."""
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = body(*args, **kwargs)
            except VIOLATIONS as exc:
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
def audit_certificate(m: ExpandingMap, *, seed: int = 3, samples: int = 4096) -> AuditResult:
    """Certified lambda really is a lower bound of T' on fresh samples, and
    forward steps are d1_sup-Lipschitz."""
    rng = _rng(seed)
    cert = certify(m)
    xs = rng.random(samples)
    dmin = float(m.dlift(xs).min())
    ys = rng.random(samples)
    lip = float(
        (circle_distance(evaluate(m, xs), evaluate(m, ys))
         - m.d1_sup * circle_distance(xs, ys)).max()
    )
    ok = (
        dmin >= cert["lambda"]
        and cert["winding"] == m.winding
        and cert["d2_sup"] == m.d2_sup
        and lip <= 1e-12
    )
    return Verdict(
        ok, f"min sampled T' - lambda = {dmin - cert['lambda']:.3e}, "
        f"worst forward-Lipschitz excess = {lip:.3e}",
    )


@_audit("second-derivative-fd")
def audit_second_derivative(m: ExpandingMap, *, seed: int = 4, samples: int = 100) -> AuditResult:
    """T'' agrees with a central finite difference of T' (h=1e-5, tol 1e-5)."""
    rng = _rng(seed)
    xs = rng.random(samples)
    h = 1e-5
    fd = (m.dlift(xs + h) - m.dlift(xs - h)) / (2.0 * h)
    worst = float(np.abs(fd - m.d2lift(xs)).max())
    return _gate(-worst, f"worst |fd - T''| = {worst:.3e} over {samples} points",
                 slack=1e-5)


@_audit("arc-expansion")
def audit_arc_expansion(m: ExpandingMap, *, seed: int = 5, samples: int = 200) -> AuditResult:
    """Arcs expand: pulling an arc of image-length ell through one branch
    yields an arc of length <= ell / lambda (strict expansion)."""
    rng = _rng(seed)
    worst = -np.inf
    for _ in range(samples):
        x = rng.random()
        ell = rng.uniform(1e-4, 0.95)
        branch = rng.integers(m.winding)
        lo = float(_solve_lift(m, branch + x)[0])
        hi = float(_solve_lift(m, branch + x + ell)[0])
        worst = max(worst, m.lam * (hi - lo) - ell)
    return _gate(-worst, f"worst lambda*|J| - |T(J)| = {worst:.3e}", slack=1e-12)


@_audit("preimage-roundtrip")
def audit_preimage_roundtrip(m: ExpandingMap, *, seed: int = 6, samples: int = 64,
                             max_depth: int = 6) -> AuditResult:
    """Forward-iterating a depth-n pullback recovers the base point."""
    rng = _rng(seed)
    xs = rng.random(samples)
    worst = 0.0
    paths = _sampled_paths(m.winding, max_depth, rng, cap=40)
    for bid, orbit, _, _ in walk(m, paths, xs):
        y = orbit[-1]
        for _ in range(bid.depth):
            y = evaluate(m, y)
        worst = max(worst, float(circle_distance(y, xs).max()))
    return _gate(-worst, f"worst return distance {worst:.3e} over "
                 f"{len(paths) * samples} cells", slack=1e-9)


@_audit("preimage-partition")
def audit_partition(m: ExpandingMap, *, seed: int = 8,
                    depths=(1, 2, 3), resolution: int = 512) -> AuditResult:
    """Preimage arcs partition the circle (depth-1 gaps sum to 1), the
    branch-enumerated transfer of the constant density has unit node mean,
    and it matches the single-step grid operator iterated to the same
    depth (two independent evaluation routes for L^n 1)."""
    rng = _rng(seed)
    worst_arc = 0.0
    for x in rng.random(16):
        pts = np.sort([p for _, p in preimages(m, float(x))])
        gaps = np.diff(np.append(pts, pts[0] + 1.0))
        worst_arc = max(worst_arc, abs(float(gaps.sum()) - 1.0))
    nodes = np.arange(resolution) / resolution
    worst_mass = 0.0
    worst_route = 0.0
    grid = GridFunction(np.ones(resolution))
    for depth in range(1, max(depths) + 1):
        grid = apply_function(m, grid)
        if depth in depths:
            branch = inverse_weight_sum(m, nodes, depth)
            worst_mass = max(worst_mass, abs(float(branch.mean()) - 1.0))
            worst_route = max(worst_route,
                              float(np.abs(branch - grid.values).max()))
            if m.d2_sup == 0.0:
                worst_route = max(worst_route,
                                  float(np.abs(branch - 1.0).max()))
    ok = worst_arc <= 1e-9 and worst_mass <= 1e-10 and worst_route <= 1e-9
    return Verdict(ok, f"worst arc defect {worst_arc:.1e}, mass defect "
                   f"{worst_mass:.1e}, route mismatch {worst_route:.1e}")


def _sampled_paths(w: int, max_depth: int, rng: np.random.Generator, cap: int = 600):
    """Branch paths of every depth 1..max_depth: all of them, or a seeded
    subsample of cap paths at a depth whose tree exceeds cap."""
    out = []
    for depth in range(1, max_depth + 1):
        total = w ** depth
        idx = np.arange(total) if total <= cap else rng.choice(total, size=cap, replace=False)
        # path[k] is digit k of the index in base w, least significant first
        digits = np.unravel_index(idx, (w,) * depth, order="F")
        out += [BranchId(depth, path) for path in zip(*digits)]
    return out


@_audit("backward-contraction")
def audit_backward_contraction(m: ExpandingMap, *, seed: int = 9, pairs: int = 1000,
                               max_depth: int = 8, path_cap: int = 600) -> AuditResult:
    """d(pullback x, pullback y) <= lambda^-n d(x, y) for sampled pairs over
    (all, or a seeded subsample of) branch paths up to depth 8."""
    rng = _rng(seed)
    xs = rng.random(pairs)
    ys = rng.random(pairs)
    d = np.atleast_1d(circle_distance(xs, ys))
    worst = -np.inf
    paths = _sampled_paths(m.winding, max_depth, rng, cap=path_cap)
    for bid, _, _, gaps in walk(m, paths, xs, ys):
        rhs = m.lam ** (-bid.depth) * d
        worst = max(worst, float((gaps[-1] - rhs).max()))
    return _gate(-worst, f"worst lhs - rhs = {worst:.3e} over {len(paths) * pairs} "
                 "pair-path cells", slack=PAIR_SLACK)


@_audit("distortion")
def audit_distortion(m: ExpandingMap, *, seed: int = 10, pairs: int = 1000,
                     max_depth: int = 8, path_cap: int = 600) -> AuditResult:
    """Derivative-product ratios along shared inverse orbits stay inside
    [exp(-Omega d), exp(Omega d)] uniformly in depth."""
    rng = _rng(seed)
    xs = rng.random(pairs)
    ys = rng.random(pairs)
    omega = compute_ledger(m, 1.0).omega
    d = circle_distance(xs, ys)
    lo = np.exp(-omega * d) - DISTORTION_SLACK
    hi = np.exp(omega * d) + DISTORTION_SLACK
    worst = -np.inf
    paths = _sampled_paths(m.winding, max_depth, rng, cap=path_cap)
    for _, us, vs, _ in walk(m, paths, xs, ys):
        ratio = np.prod(m.dlift(us), axis=0) / np.prod(m.dlift(vs), axis=0)
        worst = max(worst, float((ratio - hi).max()), float((lo - ratio).max()))
    return _gate(-worst, f"worst band excess {worst:.3e} over {len(paths) * pairs} "
                 "pair-path cells")


@_audit("operator-mass", "operator-positivity", "operator-contraction",
        takes=("resolution",))
def audit_operator_identities(m: ExpandingMap, *, seed: int = 11, cases: int = 100,
                              resolution: int = DEFAULT_RESOLUTION) -> list:
    """Mass conservation (raw, pre-renormalization), exact positivity, and
    L1 contraction of single applications over random densities."""
    rng = _rng(seed)
    worst_mass = 0.0
    min_value = np.inf
    worst_contr = -np.inf
    prev = None
    for _ in range(cases):
        psi = smooth_density(rng, resolution)
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
        _gate(-worst_mass, f"worst raw mass drift {worst_mass:.3e} over {cases} "
              "densities", slack=MASS_TOL),
        _gate(min_value, f"min output node value {min_value:.3e}"),
        _gate(-worst_contr, f"worst ||Lu||_1 - ||u||_1 = {worst_contr:.3e}",
              slack=MASS_TOL),
    ]


@_audit("operator-duality", takes=("resolution",))
def audit_duality(m: ExpandingMap, *, seed: int = 12, cases: int = 20,
                  resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """int (f o T) g dm == int f (L g) dm up to interpolation error."""
    rng = _rng(seed)
    x = np.arange(resolution) / resolution
    tx = evaluate(m, x)
    worst = -np.inf
    for _ in range(cases):
        f = smooth_function(rng, resolution)
        g = smooth_function(rng, resolution)
        lhs = float(np.mean(f.evaluate(tx) * g.values))
        rhs = integrate(GridFunction(f.values * apply_function(m, g).values))
        tol = DUALITY_REL_TOL * sup_norm(f) * sup_norm(g)
        worst = max(worst, abs(lhs - rhs) - tol)
    return _gate(-worst, f"worst |defect| - tol = {worst:.3e} over {cases} pairs")


@_audit("sup-c1-bounds", takes=("resolution",))
def audit_sup_c1_bounds(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION,
                        steps=(1, 5, 15, 30)) -> AuditResult:
    """sup and C1-size growth caps (1+Omega), (1+Omega)^2 for iterates."""
    ok = True
    worst = -np.inf
    for _, f in _test_functions(resolution, 77):
        for sup_lhs, sup_rhs, _, _, fine in check_growth_bounds(m, f, steps):
            ok = ok and fine
            worst = max(worst, sup_lhs - sup_rhs)
    return Verdict(ok, f"worst sup-bound excess {worst:.3e} (2% slack applies)")


@_audit("holder-log-contraction", "holder-growth-cap", "positivity-floor",
        "pointwise-log-bounds", "holder-from-log", takes=("resolution",))
def audit_regularity_sweep(m: ExpandingMap, *, alphas=DEFAULT_ALPHAS, n_max: int = 30,
                           resolution: int = DEFAULT_RESOLUTION) -> list:
    """The n <= 30 iterate sweep over the canonical density family:

    * Hoelder-log contraction   H(log L^n psi) <= lam^(-an) H(log psi) + Omega
    * n-uniform Hoelder cap     H(L^n psi) <= cap(H(psi))
    * positivity floor          inf L^n psi >= 1/(2 ||T'||^N1) for n >= N1
    * pointwise log bounds      exp(-H) <= psi <= exp(H) at checkpoints
    * Hoelder-from-log          H(psi) <= H_log exp(H_log)
    """
    ledgers = {a: compute_ledger(m, a) for a in alphas}
    pointwise_ns = {0, 1, 2, 5, 10, 20, 30}
    worst_log = worst_cap = -np.inf
    worst_floor = np.inf
    worst_chain = -np.inf
    pointwise_ok = True
    for psi in density_family(resolution):
        h_plain0 = holder_profile(psi, alphas)
        h_log0 = holder_profile(log_transform(psi), alphas)
        caps = {}
        floors = {}
        extra = 0
        for i, a in enumerate(alphas):
            caps[a] = holder_iteration_cap(h_plain0[i], ledgers[a])
            floors[a] = positivity_floor(h_plain0[i], ledgers[a])
            extra = max(extra, floors[a][0] + 12 - n_max)
            pointwise_ok = pointwise_ok and pointwise_log_bounds_hold(psi, h_log0[i])
        cur = psi
        for n in range(1, n_max + max(extra, 0) + 1):
            cur = apply(m, cur)
            if n <= n_max:
                h_plain = holder_profile(cur, alphas)
                h_log = holder_profile(log_transform(cur), alphas)
                for i, a in enumerate(alphas):
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
            low = float(cur.values.min())
            for a in alphas:
                n1, floor = floors[a]
                if n >= n1:
                    worst_floor = min(worst_floor, low - floor)
    return [
        _gate(-worst_log, f"worst excess {worst_log:.3e}", slack=ROUNDING_SLACK),
        _gate(-worst_cap, f"worst excess {worst_cap:.3e}", slack=ROUNDING_SLACK),
        _gate(worst_floor, f"worst inf - floor = {worst_floor:.3e}"),
        Verdict(pointwise_ok, "checkpoints n in {0,1,2,5,10,20,30}"),
        _gate(-worst_chain, f"worst excess {worst_chain:.3e}", slack=ROUNDING_SLACK),
    ]


@_audit("class-entry", takes=("resolution",))
def audit_class_entry(m: ExpandingMap, *, alphas=CLASS_ALPHAS,
                      resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Densities with log-Hoelder coefficient below B land in the limit
    class after N(B) steps: iterates keep H(log) <= Omega+1, stay above
    2a, and their residual (psi - a)/(1 - a) stays within cap K."""
    cos_g = cos_observable(resolution)
    ok = True
    details = []
    for a in alphas:
        led = compute_ledger(m, a)
        h_unit = holder_coefficient(cos_g, a)
        for cap in CLASS_CAPS:
            big_b = led.big_k if cap is None else cap
            c = min(0.7 * big_b / h_unit, 6.0)
            v = np.exp(c * cos_g.values)
            psi = GridDensity(v / v.mean())
            if not hoelder_class_check(psi, big_b, a):
                ok = False
                details.append(f"seed density left class B={big_b:.3g}")
                continue
            nb = led.n_of(big_b)
            cur = psi
            for _ in range(nb + 1):
                cur = apply(m, cur)
            for n in range(nb + 1, nb + 13):
                if not hoelder_class_check(cur, led.omega + 1.0, a):
                    ok = False
                    details.append(f"class exit at n={n}, B={big_b:.3g}, alpha={a}")
                if inf_value(cur) < 2.0 * led.a - 1e-9:
                    ok = False
                    details.append(f"floor breach at n={n}, B={big_b:.3g}, alpha={a}")
                if not hoelder_class_check(decompose(cur, led.a), led.big_k, a):
                    ok = False
                    details.append(f"residual cap breach at n={n}, alpha={a}")
                cur = apply(m, cur)
    return Verdict(ok, "; ".join(details) if details else
                   f"B sweep {{5, 20, K}} x alpha {alphas}")


@_audit("invariant-density", takes=("resolution",))
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


@_audit("cesaro-almost-invariance", takes=("resolution",))
def audit_cesaro(m: ExpandingMap, *, resolution: int = DEFAULT_RESOLUTION,
                 terms=(1, 5, 25)) -> AuditResult:
    """Cesaro averages are 2/N-almost-invariant."""
    psi = density_family(resolution)[1]          # exp(cos 2 pi x)
    worst = -np.inf
    for n_terms in terms:
        c = cesaro(m, psi, n_terms)
        moved = l1_distance(apply_function(m, c), c)
        worst = max(worst, moved - 2.0 / n_terms)
    return _gate(-worst, f"worst moved - 2/N = {worst:.3e}", slack=1e-10)


@_audit("coupling-deterministic", takes=("resolution",))
def audit_coupling_deterministic(m: ExpandingMap, *, alpha: float = 1.0,
                                 resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Epoch decomposition run: envelopes and reconstruction at every step."""
    led = compute_ledger(m, alpha)
    psi1 = cosine_density(resolution)
    phi, _ = cached_invariant(m, resolution)
    n_max = max(2 * led.n_big_k + 5, 60)
    det = deterministic_contraction_run(m, psi1, phi, alpha, n_max, ledger=led)
    recon = max((e for _, e in det.reconstruction_errors), default=0.0)
    return Verdict(
        True, f"n_max={n_max}, worst tv excess {det.max_tv_excess():.3e}, "
        f"worst reconstruction {recon:.3e}",
    )


@_audit("coupling-monte-carlo", takes=("trials", "seed", "resolution"))
def audit_coupling_monte_carlo(m: ExpandingMap, *, alpha: float = 1.0,
                               trials: int = 100_000, seed: int = 42,
                               resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Simulated pair: mismatch envelope, coupling inequality, marginals."""
    psi1 = cosine_density(resolution)
    psi2 = uniform_density(resolution)
    trace = monte_carlo_coupling(m, psi1, psi2, alpha, trials=trials, seed=seed)
    min_p = min((c["p_value"] for c in trace.chi2), default=1.0)
    return _gate(
        min_p - CHI2_P_FLOOR,
        f"{trials} trials, n_max={int(trace.ns[-1])}, "
        f"final mismatch {trace.empirical_mismatch[-1]:.4f}, "
        f"min chi2 p {min_p:.3g}", strict=True,
    )


@_audit("correlation-decay", takes=("n_max", "resolution"))
def audit_correlation_decay(m: ExpandingMap, *, alphas=DEFAULT_ALPHAS,
                            n_max: int = 60,
                            resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Main decay bound plus the reduction inequality over the full
    (f, g, alpha) sweep."""
    phi, _ = cached_invariant(m, resolution)
    cells = 0
    bad = []
    rates = []
    for a in alphas:
        led = compute_ledger(m, a)
        fs, gs = observable_family(resolution, a)
        for g_label, g in gs:
            reps = decay_report(m, [f for _, f in fs], g, a, n_max=n_max,
                                phi=phi, ledger=led)
            for (f_label, _), rep in zip(fs, reps, strict=True):
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
    return Verdict(not bad, detail)


@_audit("reduction-chain", takes=("n_max", "resolution"))
def audit_reduction_chain(m: ExpandingMap, *, alphas=DEFAULT_ALPHAS,
                          n_max: int = 60,
                          resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """The observable-to-density reduction, link by link: the normalized
    observable density obeys its Hoelder cap and converges inside the
    generic density envelope."""
    phi, _ = cached_invariant(m, resolution)
    ok = True
    worst_cap = -np.inf
    for a in alphas:
        led = compute_ledger(m, a)
        _, gs = observable_family(resolution, a)
        for _, g in gs:
            side = normalized_observable_density(g, phi)
            rep = density_convergence_report(m, side, a, n_max=n_max,
                                             phi=phi, ledger=led)
            cap = (holder_coefficient(g, a) / sup_norm(g) + 3.0) * (2.0 + led.omega) ** 2
            worst_cap = max(worst_cap, rep.psi_holder - cap)
            ok = ok and rep.all_ok()
    ok = ok and worst_cap <= ROUNDING_SLACK
    return Verdict(ok, f"worst side-density cap excess {worst_cap:.3e}")


@_audit("density-convergence", takes=("n_max", "resolution"))
def audit_density_convergence(m: ExpandingMap, *, alphas=DEFAULT_ALPHAS,
                              n_max: int = 60,
                              resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """||L^n psi - phi||_1 against the 8 (1 + H) theta^(alpha n) envelope."""
    phi, _ = cached_invariant(m, resolution)
    worst = -np.inf
    ok = True
    for a in alphas:
        led = compute_ledger(m, a)
        for psi in density_family(resolution):
            rep = density_convergence_report(m, psi, a, n_max=n_max,
                                             phi=phi, ledger=led)
            ok = ok and rep.all_ok()
            worst = max(worst, float((rep.l1_err - rep.bound).max()))
    return Verdict(ok, f"worst l1 - bound = {worst:.3e}")


# ---------------------------------------------------------------------------
# map-independent audits


@_audit("grid-quadrature", takes=("resolution",), per_map=False)
def audit_quadrature(*, seed: int = 13, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Node-mean quadrature: linearity, monotonicity, the l1 triangle
    inequality, Hoelder scaling laws, and the refinement-rate check."""
    rng = _rng(seed)
    checks = {}
    f = smooth_function(rng, resolution)
    g = smooth_function(rng, resolution)
    h = smooth_function(rng, resolution)
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


@_audit("sampling", takes=("resolution",), per_map=False)
def audit_sampling(*, seed: int = 14, draws: int = 100_000,
                   resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
    """Inverse-CDF sampling: uniform KS distance, point-mass localization,
    and bit-reproducibility under a fixed seed."""
    rng = _rng(seed)
    u = sample(uniform_density(resolution), rng, draws)
    ks = scipy.stats.kstest(u, "uniform").statistic
    v = np.zeros(resolution)
    v[resolution // 3] = resolution
    pt = sample(GridDensity(v), _rng(seed + 1), 1000)
    loc = float(circle_distance(pt, (resolution // 3) / resolution).max())
    again = sample(uniform_density(resolution), _rng(seed), draws)
    repro = bool(np.array_equal(u, again))
    ok = ks < 0.01 and loc <= 1.0 / resolution and repro
    return Verdict(ok, f"KS {ks:.4f}, point-mass radius {loc:.2e}, "
                   f"reproducible={repro}")


@_audit("constants-reference", takes=("resolution",), per_map=False)
def audit_constants_reference(*, resolution: int = DEFAULT_RESOLUTION) -> AuditResult:
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


@_audit("constants-monotonic", per_map=False)
def audit_constants_monotonic() -> AuditResult:
    """Omega increases along the perturbation sweep (d2_sup up, lambda down)."""
    eps = np.linspace(0.01, 0.1, 10)
    omegas = [compute_ledger(perturbed_map(2, float(e)), 1.0).omega for e in eps]
    lams = [perturbed_map(2, float(e)).lam for e in eps]
    ok = bool(np.all(np.diff(omegas) > 0.0) and np.all(np.diff(lams) < 0.0))
    return Verdict(ok, f"omega {omegas[0]:.3g} -> {omegas[-1]:.3g}")


# ---------------------------------------------------------------------------
# aggregate runner


def run_all(m: ExpandingMap, *, seed: int = 42, trials: int = 100_000,
            resolution: int = DEFAULT_RESOLUTION, n_max: int = 60) -> list:
    """Every registered audit, one after another in registration order: the
    per-map ones on ``m``, then the map-independent ones.  Each gets only
    the arguments it registered (its seed is otherwise its own) and is
    called through its module attribute, so a patched attribute runs."""
    given = {"seed": seed, "trials": trials, "resolution": resolution, "n_max": n_max}
    results = []
    for attr, count, takes, per_map in _AUDITS:
        args = (m,) if per_map else ()
        out = globals()[attr](*args, **{k: given[k] for k in takes})
        results += out if count > 1 else [out]
    return results
