import numpy as np
import pytest

from expcircle import (
    GridDensity,
    GridFunction,
    NotInvariant,
    ZeroObservable,
    compute_ledger,
    correlation,
    correlation_series,
    decay_report,
    density_convergence_report,
    integrate,
    normalized_observable_density,
    uniform_density,
)

M = 4096
X = np.arange(M) / M
COS = GridFunction(np.cos(2 * np.pi * X))


def test_zero_lag_is_the_variance(doubling):
    phi = uniform_density(M)
    series = correlation_series(doubling, phi, [COS], COS, 3)[0]
    assert series[0] == pytest.approx(0.5, abs=1e-10)  # int cos^2 dm
    # the doubling operator annihilates frequency one immediately
    assert np.max(np.abs(series[1:])) < 1e-9


def test_constant_observable_decorrelates(bent, bent_phi):
    g = GridFunction(np.full(M, 2.5))
    series = correlation_series(bent, bent_phi, [COS], g, 10)[0]
    assert np.max(np.abs(series)) < 1e-12
    f = GridFunction(np.full(M, -1.0))
    series = correlation_series(bent, bent_phi, [f], COS, 10)[0]
    assert np.max(np.abs(series)) < 1e-12


def test_series_is_bilinear(bent, bent_phi):
    g1 = COS
    g2 = GridFunction(np.sin(2 * np.pi * 2 * X))
    lhs = correlation_series(bent, bent_phi, [COS], g1 + 2.0 * g2, 6)[0]
    rhs = correlation_series(bent, bent_phi, [COS], g1, 6)[0] + 2.0 * correlation_series(
        bent, bent_phi, [COS], g2, 6
    )[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    rows = correlation_series(bent, bent_phi, [g1 + 2.0 * g2, g1, g2], COS, 6)
    assert np.max(np.abs(rows[0] - (rows[1] + 2.0 * rows[2]))) < 1e-10


def test_single_lag_matches_series(bent, bent_phi):
    series = correlation_series(bent, bent_phi, [COS], COS, 5)[0]
    assert correlation(bent, bent_phi, COS, COS, 5) == pytest.approx(
        series[5], abs=1e-15
    )
    with pytest.raises(ValueError):
        correlation(bent, bent_phi, COS, COS, -1)


def test_non_invariant_reference_is_rejected(bent):
    fake = GridDensity(1.0 + 0.5 * COS.values)
    with pytest.raises(NotInvariant):
        correlation_series(bent, fake, [COS], COS, 2)


def test_observable_density_normalization(bent_phi):
    psi_g = normalized_observable_density(COS, bent_phi)
    assert integrate(psi_g) == pytest.approx(1.0, abs=1e-12)
    assert psi_g.values.min() > 0.0
    with pytest.raises(ZeroObservable):
        normalized_observable_density(GridFunction(np.zeros(M)), bent_phi)


def test_decay_report_doubling(doubling):
    rep, = decay_report(doubling, [COS], COS, 1.0, n_max=40)
    assert rep.all_ok()
    assert len(rep.ns) == 41  # bound decays slowly, no early stop
    assert np.max(np.abs(rep.corr[1:])) < 1e-9
    assert rep.f_sup == 1.0 and rep.g_sup == 1.0
    assert rep.ledger.c_corr == 384.0
    s = rep.summary()
    assert s["all_ok"] and s["map"] == "linear{2}"


def test_decay_report_perturbed_cusp(bent, bent_phi):
    cusp = GridFunction(np.minimum(X, 1.0 - X) ** 0.5)
    rep, = decay_report(bent, [COS], cusp, 0.5, phi=bent_phi, n_max=50)
    assert rep.all_ok()
    # the curve genuinely decays to noise level
    assert abs(rep.corr[-1]) < 1e-10
    assert rep.g_holder == pytest.approx(1.0, rel=1e-6)


def test_multi_f_decay_report_matches_single_f_reports(bent, bent_phi):
    cusp = GridFunction(np.minimum(X, 1.0 - X) ** 0.5)
    ripple = GridFunction(np.sin(2 * np.pi * 3 * X) + 0.3 * COS.values)
    tiny = GridFunction(1e-30 * COS.values)      # its curve stops at n = 0
    fs = [COS, tiny, ripple]
    reps = decay_report(bent, fs, cusp, 0.5, phi=bent_phi, n_max=30)
    assert [len(r.ns) for r in reps] == [31, 1, 31]
    for f, rep in zip(fs, reps, strict=True):
        one, = decay_report(bent, [f], cusp, 0.5, phi=bent_phi, n_max=30)
        for name in ("ns", "corr", "bound", "ok", "reduction_ok"):
            a, b = getattr(rep, name), getattr(one, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (rep.f_sup, rep.g_sup, rep.g_holder) == (one.f_sup, one.g_sup, one.g_holder)
        assert np.array_equal([rep.fitted_rate], [one.fitted_rate], equal_nan=True)


def test_decay_csv_matches_report(tmp_path, doubling):
    rep, = decay_report(doubling, [COS], COS, 1.0, n_max=10)
    path = tmp_path / "decay.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,corr,bound,ok"
    assert len(lines) == len(rep.ns) + 1
    n, corr, bound, ok = lines[1].split(",")
    assert (int(n), float(corr), float(bound), int(ok)) == (
        0, rep.corr[0], rep.bound[0], 1,
    )


def test_density_convergence_perturbed(bent, bent_phi):
    v = np.exp(np.cos(2 * np.pi * X))
    psi = GridDensity(v / v.mean())
    for alpha in (0.5, 1.0):
        rep = density_convergence_report(
            bent, psi, alpha, n_max=120, phi=bent_phi
        )
        assert rep.all_ok()
        assert rep.l1_err[0] > 1e-2          # genuinely far at the start
        assert rep.l1_err[-1] < 1e-12        # and converged at the end
        assert np.all(rep.bound >= -1e-15)


def test_density_convergence_bound_tracks_holder(doubling):
    psi = GridDensity(1.0 + 0.5 * COS.values)
    rep = density_convergence_report(doubling, psi, 1.0, n_max=10)
    led = compute_ledger(doubling, 1.0)
    expected0 = led.d_tilde * (1.0 + rep.psi_holder)
    assert rep.bound[0] == pytest.approx(expected0, rel=1e-12)
    assert rep.all_ok()
    # uniform in one application of L: frequency one dies instantly
    assert np.max(rep.l1_err[1:]) < 1e-12
