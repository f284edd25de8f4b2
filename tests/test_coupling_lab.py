import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc

from expcircle import (
    AuditViolation,
    CouplingTrace,
    DeterministicCoupling,
    FloorViolation,
    GridDensity,
    apply,
    compute_ledger,
    coupling_lab,
    decompose,
    deterministic_contraction_run,
    monte_carlo_coupling,
    perturbed_map,
    sample,
    uniform_density,
)
from expcircle.circle_map import evaluate

M = 4096
X = np.arange(M) / M
COS = np.cos(2 * np.pi * X)


def tilted(c=0.3):
    v = np.exp(c * COS)
    return GridDensity(v / v.mean())


def test_decompose_arithmetic():
    psi = GridDensity(1.0 + 0.1 * COS)
    res = decompose(psi, 0.1)
    expected = 1.0 + (0.1 / 0.9) * COS
    assert np.max(np.abs(res.values - expected)) < 1e-12
    # mass is preserved by construction
    assert res.values.mean() == pytest.approx(1.0, abs=1e-15)


def test_decompose_guards():
    psi = GridDensity(1.0 + 0.5 * COS)
    with pytest.raises(FloorViolation):
        decompose(psi, 0.6)
    with pytest.raises(ValueError):
        decompose(psi, 0.0)
    with pytest.raises(ValueError):
        decompose(psi, 1.0)


def test_doubling_pair_couples_in_one_step(doubling):
    psi1 = GridDensity(1.0 + 0.5 * COS)
    run = deterministic_contraction_run(doubling, psi1, uniform_density(M), 1.0, 8)
    tv = run.tv_true
    assert tv[0] == pytest.approx(1.0 / math.pi, rel=2e-3)
    assert max(tv[1:]) < 1e-12  # L kills the frequency-1 mode at once
    assert np.all(tv < np.minimum(run.bound_coupling, run.bound_theta))


def test_deterministic_run_bookkeeping(bent):
    led = compute_ledger(bent, 1.0)
    n_max = 2 * led.n_big_k + 3
    run = deterministic_contraction_run(bent, tilted(), uniform_density(M), 1.0, n_max)
    assert len(run.ns) == n_max + 1
    assert run.worst_reconstruction <= 1e-8
    ks = run.ks.tolist()
    assert ks == [n // led.n_big_k for n in range(n_max + 1)]
    assert np.all(run.tv_true < np.minimum(run.bound_coupling, run.bound_theta))
    # tv decreases across epochs
    tv_at = dict(zip(run.ns.tolist(), run.tv_true))
    assert tv_at[led.n_big_k] < tv_at[0]
    assert tv_at[2 * led.n_big_k] < tv_at[led.n_big_k]


@pytest.mark.parametrize("extra, applies", [(0, 147), (3, 153)])
def test_deterministic_run_walks_residuals_only_to_an_epoch_end(bent, count_work,
                                                                extra, applies):
    # over 2 N_K + extra steps the pair takes 2 n_max applications, and the
    # residual pair and the pool 3 N_K over the second epoch (the first
    # epoch's residuals are the pair itself); a last, partial epoch
    # regenerates nothing, so none of them is walked there
    n_big_k = compute_ledger(bent, 1.0).n_big_k
    n_max = 2 * n_big_k + extra
    counts = count_work()
    deterministic_contraction_run(bent, tilted(), uniform_density(M), 1.0, n_max)
    assert counts["apply"] == 2 * n_max + 3 * n_big_k == applies


def test_deterministic_run_raises_at_the_first_step_past_the_envelope(bent, count_work,
                                                                      monkeypatch):
    # a negative slack puts every step past the envelope: the run stops at
    # n = 1, the first step it audits, after that step's two applications
    monkeypatch.setattr(coupling_lab, "DETERMINISTIC_SLACK", -10.0)
    counts = count_work()
    with pytest.raises(AuditViolation, match="exceeds envelope at n = 1 "):
        deterministic_contraction_run(bent, tilted(), uniform_density(M), 1.0, 5)
    assert counts["apply"] == 2


def test_deterministic_run_rejects_wild_start(bent):
    # far outside the admissible class: log-Hoelder above K is impossible
    # here, so build a density failing the positivity side instead.  Both
    # entry points start their run through the same check.
    spike = np.full(M, 1e-9)
    spike[0] = M
    args = (bent, GridDensity(spike), uniform_density(M), 1.0, 5)
    with pytest.raises(AuditViolation, match="psi1 is not in the admissible class"):
        deterministic_contraction_run(*args)
    with pytest.raises(AuditViolation, match="psi1 is not in the admissible class"):
        monte_carlo_coupling(*args, trials=1000, seed=42)


def test_monte_carlo_epoch_coin_statistics(doubling):
    led = compute_ledger(doubling, 1.0)
    trials = 20_000
    args = (doubling, tilted(), uniform_density(M), 1.0, 2 * led.n_big_k)
    trace = monte_carlo_coupling(*args, trials=trials, seed=7)
    _, coins, _, _ = pair_order_coupling(*args, trials=trials, seed=7)
    slack = 5.0 / math.sqrt(trials)
    # each epoch couples a Bernoulli(a) fraction of the uncoupled pairs
    assert coins.shape == (2, trials)
    assert coins[0].mean() == pytest.approx(led.a, abs=slack)
    for k in (1, 2):
        at_epoch = trace.empirical_mismatch[k * led.n_big_k]
        assert at_epoch == pytest.approx((1.0 - led.a) ** k, abs=slack)


def test_monte_carlo_chi2_and_bounds(bent):
    trace = monte_carlo_coupling(
        bent, tilted(), uniform_density(M), 1.0, None, trials=20_000, seed=11
    )
    led = trace.ledger
    assert int(trace.ns[-1]) == 5 * led.n_big_k
    assert all(entry["p_value"] > 1e-4 for entry in trace.chi2)
    assert np.all(trace.tv_true <= trace.bound_coupling + 5e-6)
    assert np.all(trace.tv_true <= trace.bound_theta + 5e-6)
    slack = 5.0 / math.sqrt(trace.trials)
    assert np.all(trace.empirical_mismatch <= trace.bound_coupling / 2.0 + slack)
    assert np.all(trace.tv_true <= 2.0 * trace.empirical_mismatch + slack)


def test_monte_carlo_writes_the_audited_envelopes(bent):
    # the bounds a trace carries are the very floats the deterministic run
    # audits tv against
    n_max = compute_ledger(bent, 1.0).n_big_k + 5
    args = (bent, tilted(), uniform_density(M), 1.0, n_max)
    trace = monte_carlo_coupling(*args, trials=2000, seed=42)
    det = deterministic_contraction_run(*args)
    for field in ("ns", "ks", "tv_true", "bound_coupling", "bound_theta"):
        a, b = getattr(trace, field), getattr(det, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    worst = (trace.worst_reconstruction, det.worst_reconstruction)
    assert np.float64(worst[0]).view(np.int64) == np.float64(worst[1]).view(np.int64)
    assert trace.ledger == det.ledger
    # a trace is the run plus its draws, and declares none of the run's fields
    assert isinstance(trace, DeterministicCoupling)
    assert not set(CouplingTrace.__annotations__) & {
        f.name for f in dataclasses.fields(DeterministicCoupling)}


def test_monte_carlo_peaks_below_its_memory_estimate(monkeypatch):
    # 200k trials over two epochs and a partial one, the operator built
    # beforehand: the traced peak stays under what _check_run_bytes counts
    m = perturbed_map(2, 0.05)
    n_epoch = compute_ledger(m, 1.0).n_big_k
    trials, n_max = 200_000, 2 * n_epoch + 8
    args = (m, tilted(), uniform_density(M), 1.0)
    deterministic_contraction_run(*args, 1)
    tracemalloc.start()
    try:
        monte_carlo_coupling(*args, n_max, trials=trials, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr("expcircle.transfer_operator.TABLE_BYTES_CAP", peak)
    with pytest.raises(MemoryError):
        coupling_lab._check_run_bytes(trials, n_max)


def test_monte_carlo_memory_is_flat_in_the_horizon():
    # no past epoch is kept, so 36 more epochs cost at most their per-step
    # series: the traced peaks at 4 and at 40 epochs differ by no more
    # than _check_run_bytes counts for those steps
    m = perturbed_map(2, 0.05)
    n_epoch = compute_ledger(m, 1.0).n_big_k
    args = (m, tilted(), uniform_density(M), 1.0)
    deterministic_contraction_run(*args, 1)
    peaks = []
    for epochs in (4, 40):
        tracemalloc.start()
        try:
            monte_carlo_coupling(*args, epochs * n_epoch, trials=1000, seed=42)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 36 * n_epoch * coupling_lab._STEP_BYTES


def test_monte_carlo_is_seed_deterministic(doubling):
    runs = [
        monte_carlo_coupling(
            doubling, tilted(), uniform_density(M), 1.0, 12,
            trials=20_000, seed=42,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].empirical_mismatch, runs[1].empirical_mismatch)
    assert runs[0].chi2 == runs[1].chi2
    other = monte_carlo_coupling(
        doubling, tilted(), uniform_density(M), 1.0, 12, trials=20_000, seed=43
    )
    assert not np.array_equal(runs[0].empirical_mismatch, other.empirical_mismatch)
    assert runs[0].chi2 != other.chi2


def textbook_evaluate(m, x):
    """T(x) for perturbed{w, eps} as w x + eps sin(2 pi x), reduced by np.mod."""
    w, eps = m.params
    x = np.asarray(x, dtype=float)
    r = np.mod(w * x + eps * np.sin(2 * np.pi * x), 1.0)
    return np.where(r >= 1.0, 0.0, r)


def test_monte_carlo_matches_textbook_evaluate(monkeypatch):
    # the same run with the map step spelled out must agree bit for bit
    m = perturbed_map(2, 0.1)
    args = (m, tilted(), uniform_density(M), 1.0)
    fast = monte_carlo_coupling(*args, trials=2000, seed=42)
    monkeypatch.setattr(coupling_lab, "evaluate", textbook_evaluate)
    slow = monte_carlo_coupling(*args, trials=2000, seed=42)
    assert int(fast.ns[-1]) == 5 * fast.ledger.n_big_k
    for field in ("ns", "ks", "tv_true", "empirical_mismatch", "bound_coupling",
                  "bound_theta"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert fast.chi2 == slow.chi2


def marginal_checks(n, x, y, densities):
    return [{"n": n, "marginal": "x", **coupling_lab._chi2_marginal(x, densities[0])},
            {"n": n, "marginal": "y", **coupling_lab._chi2_marginal(y, densities[1])}]


def pair_order_coupling(m, psi1, psi2, alpha, n_max, trials, seed):
    """monte_carlo_coupling spelled out: every pair of x and y stepped in
    pair order at every step, the unequal pairs counted after each step,
    the marginals and the residuals evolved here by apply, each epoch's
    residuals decomposed from the last epoch's, and each epoch's
    regeneration drawn as the code draws it.  Returns the mismatch series,
    the coins, the chi-square checks and the points at the start of each
    epoch."""
    led = compute_ledger(m, alpha)
    a, n_epoch = led.a, led.n_big_k
    marginals = residuals = (psi1, psi2)
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = sample(psi1, rng, trials)
    y = sample(psi2, rng, trials)
    coupled = np.zeros(trials, dtype=bool)
    mismatch = [np.count_nonzero(x != y) / trials]
    coins, chi2, starts = [], [], []
    for n in range(1, n_max + 1):
        if (n - 1) % n_epoch == 0:
            starts.append((x.copy(), y.copy()))
        x = evaluate(m, x)
        y = evaluate(m, y)
        marginals = tuple(apply(m, d) for d in marginals)
        residuals = tuple(apply(m, r) for r in residuals)
        mismatch.append(np.count_nonzero(x != y) / trials)
        if n % n_epoch == 0:
            residuals = tuple(decompose(r, a) for r in residuals)
            coin = rng.random(trials) < a
            newly = coin & ~coupled
            tails = ~coin & ~coupled
            fresh = rng.random(np.count_nonzero(newly))
            x[newly] = fresh
            y[newly] = fresh
            res1, res2 = residuals
            x[tails] = sample(res1, rng, np.count_nonzero(tails))
            y[tails] = sample(res2, rng, np.count_nonzero(tails))
            coupled |= newly
            coins.append(coin)
            chi2 += marginal_checks(n, x, y, marginals)
            mismatch[n] = np.count_nonzero(x != y) / trials
    if n_max % n_epoch:
        chi2 += marginal_checks(n_max, x, y, marginals)
    return np.array(mismatch), np.array(coins).reshape(-1, trials), chi2, starts


@pytest.mark.parametrize("name, epochs, rest", [
    ("bent", 5, 0), ("bent", 2, 7), ("perturbed{2,0.1}", 2, 0)])
def test_monte_carlo_equals_the_pair_order_reference(bent, name, epochs, rest):
    m = bent if name == "bent" else perturbed_map(2, 0.1)
    n_max = epochs * compute_ledger(m, 1.0).n_big_k + rest
    args = (m, tilted(), uniform_density(M), 1.0, n_max)
    trace = monte_carlo_coupling(*args, trials=3000, seed=42)
    mismatch, coins, chi2, _ = pair_order_coupling(*args, trials=3000, seed=42)
    assert np.array_equal(trace.empirical_mismatch.view(np.int64), mismatch.view(np.int64))
    assert trace.chi2 == chi2
    assert len(chi2) == 2 * (epochs + (rest > 0))


def test_monte_carlo_flows_only_the_pairs_it_reads(bent, monkeypatch):
    # a full epoch steps the pairs equal at its start, as one array; the
    # last, partial epoch steps every x and every y.  No thread is started.
    n_epoch = compute_ledger(bent, 1.0).n_big_k
    trials, n_max = 2001, 3 * n_epoch + 4
    args = (bent, tilted(), uniform_density(M), 1.0, n_max)
    calls = []
    threads = threading.active_count()
    evaluate_ = coupling_lab.evaluate

    def recorded(m, v):
        calls.append((np.array(v), threading.active_count()))
        return evaluate_(m, v)

    monkeypatch.setattr(coupling_lab, "evaluate", recorded)
    monte_carlo_coupling(*args, trials=trials, seed=42)
    *_, starts = pair_order_coupling(*args, trials=trials, seed=42)
    assert len(starts) == 4 and len(calls) == 3 * n_epoch + 2 * 4
    assert all(count == threads for _, count in calls)
    for k, (x, y) in enumerate(starts[:3]):
        epoch = calls[k * n_epoch:(k + 1) * n_epoch]
        assert [v.size for v, _ in epoch] == [np.count_nonzero(x == y)] * n_epoch
        assert np.array_equal(epoch[0][0].view(np.int64), x[x == y].view(np.int64))
    partial = calls[3 * n_epoch:]
    assert [v.size for v, _ in partial] == [trials] * 8
    for v, start in zip(partial[:2], starts[3], strict=True):
        assert np.array_equal(v[0].view(np.int64), start.view(np.int64))
    # no pair is equal at the start, some are after the first epoch
    assert calls[0][0].size == 0 and 0 < calls[n_epoch][0].size < trials


# The closed-form chi-square tail against scipy's chdtrc.  Against a
# 50-digit mpmath reference at dof 63, on 20000-point grids of x in
# [1e-3, 400] and on this test's grid, the tail was within 1.6e-15 relative
# and chdtrc within 5.2e-14, so the two may differ by up to their sum.
CHI2_TAIL_RTOL = 1.6e-15 + 5.2e-14


def test_chi2_tail_matches_chdtrc():
    xs = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, 400.0, 400)])
    got = np.array([coupling_lab._chi2_tail(63, float(x)) for x in xs])
    want = chdtrc(63, xs)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= CHI2_TAIL_RTOL


def test_chi2_tail_ends_and_even_dof():
    tail = coupling_lab._chi2_tail
    assert tail(63, 0.0) == 1.0
    assert tail(63, math.inf) == 0.0
    # e^(-x/2) underflows to 0 before it meets sqrt(2x/pi): 0.0, not NaN
    assert tail(63, 1e12) == 0.0
    assert math.isnan(tail(63, math.nan))
    for dof in (0, 2, 64):
        with pytest.raises(ValueError, match="odd dof"):
            tail(dof, 1.0)


@pytest.mark.parametrize("points", [300, 8000, 100_000])
def test_chi2_p_values_match_scipy_stats(points):
    rng = np.random.default_rng(points)
    for density, draws in ((uniform_density(M), rng.random(points)),
                           (tilted(), sample(tilted(), rng, points)),
                           (tilted(0.1), sample(tilted(), rng, points))):
        got = coupling_lab._chi2_marginal(draws, density)
        want = stats.chi2.sf(got["statistic"], coupling_lab.CHI2_BINS - 1)
        assert got["dof"] == coupling_lab.CHI2_BINS - 1
        assert math.isclose(got["p_value"], want, rel_tol=CHI2_TAIL_RTOL, abs_tol=0.0)
