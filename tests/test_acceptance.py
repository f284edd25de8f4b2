"""End-to-end acceptance checks.

Each test certifies one headline guarantee of the package on concrete
maps, prints a single PASS/FAIL line with the measured margin, and pins
its tolerance (and, where relevant, a wall-clock budget) explicitly.
"""
import math
import time
from itertools import product

import numpy as np
import pytest

from expcircle import (
    GridDensity,
    GridFunction,
    apply,
    apply_function,
    circle_distance,
    compute_ledger,
    inf_value,
    integrate,
    invariant_density,
    l1_distance,
    linear_map,
    monte_carlo_coupling,
    perturbed_map,
    sup_norm,
    uniform_density,
)
from expcircle.audits import (
    audit_correlation_decay,
    smooth_density,
    standard_maps,
)
from expcircle.inverse_branches import walk

M = 4096
X = np.arange(M) / M
MAPS = standard_maps()


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# The results of audit_regularity_sweep, in its order.
SWEEP_NAMES = ("holder-log-contraction", "holder-growth-cap", "positivity-floor",
               "pointwise-log-bounds", "holder-from-log")


def verify_results(verify_run, names) -> dict:
    """The results called ``names`` of each map's shared verify run, by map."""
    return {repr(m): [r for r in verify_run(m).results() if r.name in names]
            for m in MAPS}


@pytest.fixture(scope="module")
def regularity_sweeps(verify_run):
    """One iterate sweep per map, shared by the contraction and floor checks:
    the one each map's verify run made."""
    return verify_results(verify_run, SWEEP_NAMES)


def test_invariant_density_doubling_exact(capsys):
    t0 = time.perf_counter()
    phi, diag = invariant_density(linear_map(2), tol=1e-12)
    elapsed = time.perf_counter() - t0
    dev = sup_norm(GridFunction(phi.values - 1.0))
    ok = dev < 1e-10 and diag.n_steps <= 5 and elapsed < 1.0
    report(
        capsys,
        "doubling invariant density is Lebesgue",
        ok,
        f"sup deviation {dev:.3e} in {diag.n_steps} steps ({elapsed:.3f} s)",
    )


def test_constants_doubling_closed_forms(capsys):
    led = compute_ledger(linear_map(2), 1.0)
    theta_ref = (1.0 - math.exp(-3.0)) ** (math.log(2.0) / 4.0)
    checks = {
        "omega": led.omega == 0.0,
        "C": led.c_corr == 384.0,
        "a": abs(led.a - math.exp(-1.0) / 2.0) <= 1e-12,
        "theta": abs(led.theta_paper - theta_ref) <= 1e-12,
    }
    bad = [k for k, v in checks.items() if not v]
    report(
        capsys,
        "doubling constants match closed forms",
        not bad,
        "omega=0, C=384, a=e^-1/2, theta=(1-e^-3)^(ln2/4)"
        if not bad
        else f"mismatch in {bad}",
    )


def test_operator_conservation_sweep(capsys):
    worst_mass = 0.0
    worst_l1 = -np.inf
    worst_min = np.inf
    for m in MAPS:
        for seed in range(100):
            psi = smooth_density(seed)
            out = apply(m, psi)
            worst_mass = max(worst_mass, abs(integrate(out) - integrate(psi)))
            worst_min = min(worst_min, inf_value(out))
            u = GridFunction(psi.values - smooth_density(seed + 100).values)
            lu = apply_function(m, u)
            worst_l1 = max(
                worst_l1,
                integrate(GridFunction(np.abs(lu.values)))
                - integrate(GridFunction(np.abs(u.values))),
            )
    ok = worst_mass <= 1e-10 and worst_l1 <= 1e-10 and worst_min >= 0.0
    report(
        capsys,
        "mass, L1 contraction and positivity over 100 densities x 5 maps",
        ok,
        f"mass drift {worst_mass:.3e}, L1 growth {worst_l1:.3e}, "
        f"min value {worst_min:.3e}",
    )


def test_frequency_halving_identities(capsys):
    m = linear_map(2)
    halved = apply_function(m, GridFunction(np.cos(2 * np.pi * 2 * X)))
    err_halve = float(np.max(np.abs(halved.values - np.cos(2 * np.pi * X))))
    err_kill = sup_norm(apply_function(m, GridFunction(np.cos(2 * np.pi * X))))
    ok = err_halve <= 1e-10 and err_kill <= 1e-10
    report(
        capsys,
        "doubling halves frequency two and kills frequency one",
        ok,
        f"halving error {err_halve:.3e}, kill error {err_kill:.3e} (tol 1e-10)",
    )


def test_distortion_all_branches(capsys):
    m = perturbed_map(2, 0.05)
    omega = compute_ledger(m, 1.0).omega
    rng = np.random.Generator(np.random.Philox(key=1001))
    x = rng.random(1000)
    y = rng.random(1000)
    d = circle_distance(x, y)
    cells = 0
    worst = -np.inf
    t0 = time.perf_counter()
    hi = np.exp(omega * d) + 1e-9
    lo = np.exp(-omega * d) - 1e-9
    paths = [p for depth in range(1, 9) for p in product(range(2), repeat=depth)]
    for end in walk(m, paths, x, y):
        r = end.du / end.dv
        worst = max(worst, float(np.max(np.maximum(r - hi, lo - r))))
        cells += r.size
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 30.0
    report(
        capsys,
        "distortion band over every branch to depth 8",
        ok,
        f"worst band excess {worst:.3e} over {cells} pair-path cells "
        f"({elapsed:.1f} s, budget 30 s)",
    )


def _sweep_entry(sweeps, name):
    out = {}
    for label, results in sweeps.items():
        matches = [r for r in results if r.name == name]
        assert len(matches) == 1
        out[label] = matches[0]
    return out


def test_holder_log_contraction_sweep(capsys, regularity_sweeps):
    entries = _sweep_entry(regularity_sweeps, "holder-log-contraction")
    bad = [f"{label} ({r.detail})" for label, r in entries.items() if not r.ok]
    details = "; ".join(f"{label} {r.detail}" for label, r in entries.items())
    report(
        capsys,
        "Hoelder-log contraction through 30 iterates on all maps",
        not bad,
        details if not bad else "violations: " + ", ".join(bad),
    )


def test_positivity_floor_sweep(capsys, regularity_sweeps):
    entries = _sweep_entry(regularity_sweeps, "positivity-floor")
    bad = [f"{label} ({r.detail})" for label, r in entries.items() if not r.ok]
    details = "; ".join(f"{label} {r.detail}" for label, r in entries.items())
    report(
        capsys,
        "uniform positivity floor past the entry step on all maps",
        not bad,
        details if not bad else "violations: " + ", ".join(bad),
    )


def test_regularity_sweep_passes_on_all_maps(capsys, regularity_sweeps):
    bad = [f"{label} {r.name} ({r.detail})"
           for label, results in regularity_sweeps.items()
           for r in results if not r.ok]
    names = [r.name for r in next(iter(regularity_sweeps.values()))]
    report(
        capsys,
        "every regularity-sweep entry on all maps",
        not bad,
        f"{len(names)} entries ({', '.join(names)}) on {len(MAPS)} maps"
        if not bad
        else "violations: " + ", ".join(bad),
    )


def test_monte_carlo_coupling_certified(capsys):
    m = perturbed_map(2, 0.05)
    v = np.exp(0.3 * np.cos(2 * np.pi * X))
    psi1 = GridDensity(v / v.mean())
    trials = 100_000
    t0 = time.perf_counter()
    trace = monte_carlo_coupling(
        m, psi1, uniform_density(M), 1.0, None, trials=trials, seed=42
    )
    elapsed = time.perf_counter() - t0
    led = trace.ledger
    slack = 5.0 / math.sqrt(trials)
    theoretical = (1.0 - led.a) ** trace.ks
    mismatch_excess = float(np.max(trace.empirical_mismatch - theoretical))
    tv_excess = float(np.max(trace.tv_true - 2.0 * trace.empirical_mismatch))
    min_p = min(entry["p_value"] for entry in trace.chi2)
    ok = (
        int(trace.ns[-1]) == 5 * led.n_big_k
        and mismatch_excess <= slack
        and tv_excess <= slack
        and min_p > 1e-4
        and elapsed < 120.0
    )
    report(
        capsys,
        "Monte-Carlo coupling at 100000 trials, seed 42",
        ok,
        f"mismatch excess {mismatch_excess:.3e}, tv excess {tv_excess:.3e} "
        f"(slack {slack:.1e}), min chi2 p {min_p:.4f}, "
        f"{int(trace.ns[-1])} steps in {elapsed:.1f} s (budget 120 s)",
    )


def test_density_convergence_envelope(capsys, verify_run):
    results = [r for r, in verify_results(verify_run, ("density-convergence",)).values()]
    bad = [f"{m!r} ({r.detail})" for m, r in zip(MAPS, results) if not r.ok]
    worst = max(float(r.detail.split()[-1]) for r in results)
    report(
        capsys,
        "L1 convergence under the explicit envelope on all maps",
        not bad,
        f"worst l1 - bound = {worst:.3e} (slack 1e-8)"
        if not bad
        else "violations: " + ", ".join(bad),
    )


def test_correlation_decay_envelope(capsys):
    t0 = time.perf_counter()
    results = [audit_correlation_decay(m) for m in MAPS]
    elapsed = time.perf_counter() - t0
    assert all([r.name for r in pair] == ["correlation-decay", "reduction-chain"]
               for pair in results)
    bad = [f"{m!r} {r.name} ({r.detail})"
           for m, pair in zip(MAPS, results) for r in pair if not r.ok]
    ok = not bad and elapsed < 300.0
    report(
        capsys,
        "correlation decay inside the explicit bound, 18 cells per map, "
        "and its side densities inside their cap and envelope",
        ok,
        f"all cells and side chains bounded on 5 maps ({elapsed:.1f} s, budget 300 s)"
        if not bad
        else "violations: " + ", ".join(bad),
    )


def test_invariant_uniqueness_two_starts(capsys):
    worst = -np.inf
    for m in MAPS:
        phi_a, _ = invariant_density(m, tol=1e-12)
        phi_b, _ = invariant_density(m, psi0=smooth_density(2025), tol=1e-12)
        worst = max(worst, l1_distance(phi_a, phi_b))
    ok = worst <= 1e-8
    report(
        capsys,
        "invariant density independent of the starting point on all maps",
        ok,
        f"worst L1 gap between two starts {worst:.3e} (tol 1e-8)",
    )
