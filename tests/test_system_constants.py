import math

import numpy as np
import pytest

import expcircle.density_grid as density_grid
from expcircle import (
    CertificationError,
    GridDensity,
    InvalidAlpha,
    compute_ledger,
    hoelder_class_check,
    holder_coefficient,
    holder_iteration_cap,
    lipschitz_estimate,
    log_transform,
    perturbed_map,
    pointwise_log_bounds_hold,
    positivity_floor,
    uniform_density,
)
from expcircle.audits import density_family, smooth_density
from expcircle.system_constants import ROUNDING_SLACK

M = 4096
X = np.arange(M) / M
COS = np.cos(2 * np.pi * X)


def test_doubling_ledger_closed_forms(doubling):
    led = compute_ledger(doubling, 1.0)
    assert led.omega == 0.0
    assert led.a == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-15)
    assert led.big_k == pytest.approx(math.exp(4.0), abs=1e-12)
    assert led.n_big_k == 6
    assert led.c_corr == 384.0
    assert led.d_exact == pytest.approx(2.0 / (1.0 - led.a), abs=1e-15)
    assert led.d_relaxed == 4.0 and led.d_tilde == 8.0
    assert led.theta_exact == pytest.approx((1.0 - led.a) ** (1.0 / 6.0), abs=1e-15)
    assert led.theta_paper == pytest.approx(
        (1.0 - math.exp(-3.0)) ** (math.log(2.0) / 4.0), abs=1e-15
    )
    assert led.lower_floor == pytest.approx(2.0 * led.a, abs=1e-16)


def test_perturbed_ledger_consistency(bent):
    for alpha in (0.3, 0.5, 1.0):
        led = compute_ledger(bent, alpha)
        assert led.lam == pytest.approx(2.0 - 0.1 * math.pi, abs=1e-15)
        assert led.omega == pytest.approx(
            bent.d2_sup / (led.lam * (led.lam - 1.0)), abs=1e-15
        )
        assert led.a == pytest.approx(math.exp(-(led.omega + 1.0)) / 2.0, abs=1e-15)
        assert 0.0 < led.a <= math.exp(-1.0) / 2.0
        assert led.big_k == pytest.approx(math.exp(4.0 * (led.omega + 1.0)), rel=1e-13)
        assert 0.0 < led.theta_exact < 1.0
        assert 0.0 < led.theta_paper < 1.0
        assert led.c_corr == pytest.approx(96.0 * (2.0 + led.omega) ** 2, abs=1e-12)
        assert led.n_big_k >= 1
        # floored integer recipe sits just above the raw exponent
        raw = math.log(led.big_k) / (alpha * math.log(led.lam))
        assert led.n_big_k == math.floor(raw) + 1


def test_epoch_count_scales_with_alpha(bent):
    n1 = compute_ledger(bent, 1.0).n_big_k
    n_half = compute_ledger(bent, 0.5).n_big_k
    assert n_half in (2 * n1, 2 * n1 - 1, 2 * n1 + 1)
    assert n_half > n1


def test_n_of_recipe(doubling):
    led = compute_ledger(doubling, 1.0)
    assert led.n_of(1.0) == 1
    assert led.n_of(0.5) == 1
    assert led.n_of(led.big_k) == led.n_big_k
    for bound in (1.5, 5.0, 20.0, 1e4):
        n = led.n_of(bound)
        # lambda^(alpha (n-1)) <= bound < lambda^(alpha n) up to the floor
        assert led.lam ** (led.alpha * (n - 1)) <= bound * (1 + 1e-12)


def test_invalid_alpha_rejected(doubling):
    for bad in (0.0, -1.0, 1.0001, 2.0):
        with pytest.raises(InvalidAlpha):
            compute_ledger(doubling, bad)


def test_ledger_refuses_an_overflowing_class_cap():
    # lambda is barely above 1, so 4(Omega+1) is past the float64 exponent range
    with pytest.raises(CertificationError, match="overflows float64"):
        compute_ledger(perturbed_map(2, 0.159), 1.0)
    # the largest eps of the standard maps is well inside the range
    assert math.isfinite(compute_ledger(perturbed_map(2, 0.1), 1.0).big_k)


def test_ledger_refuses_vacuous_rates():
    # from eps = 0.11 on, theta_paper rounds to exactly 1.0 in float64
    with pytest.raises(CertificationError, match="must both be below 1"):
        compute_ledger(perturbed_map(2, 0.11), 1.0)
    led = compute_ledger(perturbed_map(2, 0.1), 1.0)
    assert led.theta_paper < 1.0 and led.theta_exact < 1.0


def test_class_membership_checks():
    psi = GridDensity(np.exp(0.3 * COS))
    assert hoelder_class_check(psi, 0.3 * 2 * math.pi * 1.01, 1.0)
    assert not hoelder_class_check(psi, 0.1, 1.0)
    assert hoelder_class_check(uniform_density(M), 1e-6, 1.0)
    h_log = holder_coefficient(log_transform(psi), 1.0)
    assert pointwise_log_bounds_hold(psi, h_log)
    assert not pointwise_log_bounds_hold(psi, 0.1)
    assert pointwise_log_bounds_hold(uniform_density(M), 0.0)


def test_class_check_agrees_with_the_exact_coefficient(monkeypatch):
    scans = []
    real = density_grid._lag_scan
    monkeypatch.setattr(density_grid, "_lag_scan",
                        lambda *args: scans.append(args) or real(*args))
    res = 512
    densities = [*density_family(res), *(smooth_density(s, res) for s in range(4))]
    exact_runs = 0
    for psi in densities:
        log_psi = log_transform(psi)
        osc = float(log_psi.values.max() - log_psi.values.min())
        lip = lipschitz_estimate(log_psi)
        for alpha in (0.3, 0.5, 1.0):
            h = holder_coefficient(log_psi, alpha)
            upper = osc ** (1.0 - alpha) * lip ** alpha
            assert h <= upper * (1.0 + 1e-12)
            for cap in (h * (1 - 1e-9), h, h + ROUNDING_SLACK, h * (1 + 1e-9),
                        upper, h - 2 * ROUNDING_SLACK):
                scans.clear()
                got = hoelder_class_check(psi, cap, alpha)
                assert got == (h <= cap + ROUNDING_SLACK), (psi, alpha, cap)
                # the bound decides only when it meets the cap; below it
                # an alpha < 1 needs the exact scan
                decided = upper * (1.0 + 1e-12) <= cap + ROUNDING_SLACK
                assert len(scans) == (0 if decided or alpha == 1.0 else 1)
                exact_runs += not decided
    assert exact_runs > 0


def test_iteration_cap_formula(doubling, bent):
    led = compute_ledger(doubling, 1.0)
    # omega = 0 collapses the cap to h / lambda
    assert holder_iteration_cap(1.0, led) == pytest.approx(0.5, abs=1e-15)
    led_b = compute_ledger(bent, 1.0)
    h = 2.0
    lam_a = led_b.lam
    expected = (h / lam_a + math.expm1(led_b.omega) * (h + 1.0)) * (1.0 + led_b.omega)
    assert holder_iteration_cap(h, led_b) == pytest.approx(expected, abs=1e-13)


def test_positivity_floor_recipe(doubling):
    led = compute_ledger(doubling, 1.0)
    # h = 1: every iterate stays 1-Hoelder in log, 2L = 2 needs one halving
    assert positivity_floor(1.0, led) == (2, 1.0 / 8.0)
    # h = 0.4: cap < 1/2 so the floor is immediate
    assert positivity_floor(0.4, led) == (1, 0.25)


def test_omega_monotone_in_perturbation():
    omegas = [
        compute_ledger(perturbed_map(2, eps), 1.0).omega
        for eps in np.linspace(0.01, 0.1, 10)
    ]
    assert all(b > a for a, b in zip(omegas, omegas[1:]))
