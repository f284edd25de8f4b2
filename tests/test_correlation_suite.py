import dataclasses

import numpy as np
import pytest

from expcircle import (
    GridDensity,
    GridFunction,
    NotInvariant,
    ZeroObservable,
    compute_ledger,
    correlation_series,
    decay_report,
    density_convergence_report,
    integrate,
    normalized_observable_density,
    perturbed_map,
    uniform_density,
)
from expcircle.audits import cos_observable, standard_maps
from expcircle.correlation_suite import REDUCTION_SLACK
from expcircle.transfer_operator import cached_invariant

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
    g12 = GridFunction(g1.values + 2.0 * g2.values)
    lhs = correlation_series(bent, bent_phi, [COS], g12, 6)[0]
    rhs = correlation_series(bent, bent_phi, [COS], g1, 6)[0] + 2.0 * correlation_series(
        bent, bent_phi, [COS], g2, 6
    )[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    rows = correlation_series(bent, bent_phi, [g12, g1, g2], COS, 6)
    assert np.max(np.abs(rows[0] - (rows[1] + 2.0 * rows[2]))) < 1e-10


def test_non_invariant_reference_is_rejected(bent):
    fake = GridDensity(1.0 + 0.5 * COS.values)
    with pytest.raises(NotInvariant):
        correlation_series(bent, fake, [COS], COS, 2)


@pytest.mark.parametrize("resolution", [16, 4096])
def test_uniform_density_is_not_invariant_under_a_perturbed_map(resolution):
    # the invariance check renormalizes the image, so only a genuine move fails
    m = perturbed_map(2, 0.1)
    g = GridFunction(np.cos(2 * np.pi * np.arange(resolution) / resolution))
    with pytest.raises(NotInvariant):
        correlation_series(m, uniform_density(resolution), [g], g, 2)


def test_observable_density_normalization(bent_phi):
    psi_g = normalized_observable_density(COS, bent_phi)
    assert integrate(psi_g) == pytest.approx(1.0, abs=1e-12)
    assert psi_g.values.min() > 0.0
    with pytest.raises(ZeroObservable):
        normalized_observable_density(GridFunction(np.zeros(M)), bent_phi)


def test_decay_report_doubling(doubling):
    (rep,), = decay_report(doubling, [COS], COS, (1.0,), n_max=40)
    assert rep.all_ok()
    assert len(rep.ns) == 41  # bound decays slowly, no early stop
    assert np.max(np.abs(rep.corr[1:])) < 1e-9
    assert rep.f_sup == 1.0 and rep.g_sup == 1.0
    assert rep.ledger.c_corr == 384.0
    s = rep.summary()
    assert s["all_ok"] and s["map"] == "linear{2}"


def test_decay_report_perturbed_cusp(bent):
    cusp = GridFunction(np.minimum(X, 1.0 - X) ** 0.5)
    (rep,), = decay_report(bent, [COS], cusp, (0.5,), n_max=50)
    assert rep.all_ok()
    # the curve genuinely decays to noise level
    assert abs(rep.corr[-1]) < 1e-10
    assert rep.g_holder == pytest.approx(1.0, rel=1e-6)


def test_multi_f_decay_report_matches_single_f_reports(bent):
    cusp = GridFunction(np.minimum(X, 1.0 - X) ** 0.5)
    ripple = GridFunction(np.sin(2 * np.pi * 3 * X) + 0.3 * COS.values)
    tiny = GridFunction(1e-30 * COS.values)      # its curve stops at n = 0
    fs = [COS, tiny, ripple]
    reps, = decay_report(bent, fs, cusp, (0.5,), n_max=30)
    assert [len(r.ns) for r in reps] == [31, 1, 31]
    for f, rep in zip(fs, reps, strict=True):
        (one,), = decay_report(bent, [f], cusp, (0.5,), n_max=30)
        for name in ("ns", "corr", "bound", "ok", "reduction_ok"):
            a, b = getattr(rep, name), getattr(one, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (rep.f_sup, rep.g_sup, rep.g_holder) == (one.f_sup, one.g_sup, one.g_holder)
        assert np.array_equal([rep.fitted_rate], [one.fitted_rate], equal_nan=True)


def assert_same_report(multi, single):
    """Every field of two reports is equal, arrays bit for bit."""
    assert type(multi) is type(single)
    for field in dataclasses.fields(multi):
        a, b = getattr(multi, field.name), getattr(single, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        elif isinstance(a, float):
            assert np.array_equal([a], [b], equal_nan=True), field.name
        else:
            assert a == b, field.name


def test_multi_alpha_reports_match_single_alpha_reports(bent):
    alphas = (0.3, 0.5, 1.0)
    cusp = GridFunction(np.minimum(X, 1.0 - X) ** 0.5)
    ripple = GridFunction(np.sin(2 * np.pi * 3 * X) + 0.3 * COS.values)
    fs = [COS, ripple]
    reps = decay_report(bent, fs, cusp, alphas, n_max=30)
    assert [[r.alpha for r in per_f] for per_f in reps] == [[a, a] for a in alphas]
    for a, per_f in zip(alphas, reps, strict=True):
        singles, = decay_report(bent, fs, cusp, (a,), n_max=30)
        for multi, single in zip(per_f, singles, strict=True):
            assert_same_report(multi, single)
    v = np.exp(np.cos(2 * np.pi * X))
    psi = GridDensity(v / v.mean())
    reps = density_convergence_report(bent, psi, alphas, n_max=40)
    for a, multi in zip(alphas, reps, strict=True):
        single, = density_convergence_report(bent, psi, (a,), n_max=40)
        assert_same_report(multi, single)


def test_density_convergence_perturbed(bent):
    v = np.exp(np.cos(2 * np.pi * X))
    psi = GridDensity(v / v.mean())
    reps = density_convergence_report(bent, psi, (0.5, 1.0), n_max=120)
    assert [rep.alpha for rep in reps] == [0.5, 1.0]
    for rep in reps:
        assert rep.all_ok()
        assert rep.l1_err[0] > 1e-2          # genuinely far at the start
        assert rep.l1_err[-1] < 1e-12        # and converged at the end
        assert np.all(rep.bound >= -1e-15)


def test_density_convergence_bound_tracks_holder(doubling):
    psi = GridDensity(1.0 + 0.5 * COS.values)
    rep, = density_convergence_report(doubling, psi, (1.0,), n_max=10)
    led = compute_ledger(doubling, 1.0)
    expected0 = led.d_tilde * (1.0 + rep.psi_holder)
    assert rep.bound[0] == pytest.approx(expected0, rel=1e-12)
    assert rep.all_ok()
    # uniform in one application of L: frequency one dies instantly
    assert np.max(rep.l1_err[1:]) < 1e-12


@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_side_density_is_walked_only_as_far_as_the_check_can_fail(count_work, m):
    cos = cos_observable(1024)
    cached_invariant(m, 1024)
    counts = count_work()
    (rep,), = decay_report(m, [cos], cos, (1.0,), n_max=60)
    need = int(np.flatnonzero(np.abs(rep.corr) > REDUCTION_SLACK)[-1])
    assert need < 60
    # the invariance check, 60 steps of g phi and psi_g's steps to n = need;
    # a whole side walk makes 60 of them
    assert counts["apply"] == 1 + 60 + need
    assert rep.side_l1.size == need + 1
    counts = count_work()
    (whole,), = decay_report(m, [cos], cos, (1.0,), n_max=60, full_side_walk=True)
    assert counts["apply"] == 1 + 60 + 60
    assert whole.side_l1.size == 61
    assert np.array_equal(whole.side_l1[:need + 1], rep.side_l1)
    # past need the cut walk reads the side term, and so the reduction
    # bound, as 0: the same booleans as the whole walk
    assert np.array_equal(whole.reduction_bound[:need + 1], rep.reduction_bound[:need + 1])
    assert not np.any(rep.reduction_bound[need + 1:])
    assert_same_report(dataclasses.replace(whole, side_l1=rep.side_l1,
                                           reduction_bound=rep.reduction_bound), rep)


def test_short_horizon_walks_the_side_density_to_its_end():
    m = perturbed_map(2, 0.1)
    cos = cos_observable(1024)
    (rep,), = decay_report(m, [cos], cos, (1.0,), n_max=3)
    assert abs(rep.corr[-1]) > REDUCTION_SLACK
    assert rep.side_l1.size == 4
    assert rep.all_ok()

