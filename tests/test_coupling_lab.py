import collections
import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy import stats

from expcircle import (
    AuditViolation,
    FloorViolation,
    GridDensity,
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
    assert run.max_tv_excess() < 0.0


def test_deterministic_run_bookkeeping(bent):
    led = compute_ledger(bent, 1.0)
    n_max = 2 * led.n_big_k + 3
    run = deterministic_contraction_run(bent, tilted(), uniform_density(M), 1.0, n_max)
    assert len(run.ns) == n_max + 1
    assert len(run.epoch_residuals) == 2
    assert len(run.reconstruction_errors) == 2
    assert all(err <= 1e-8 for _, err in run.reconstruction_errors)
    assert sorted(run.marginals) == [0, led.n_big_k, 2 * led.n_big_k, n_max]
    ks = run.ks.tolist()
    assert ks == [n // led.n_big_k for n in range(n_max + 1)]
    assert run.max_tv_excess() < 0.0
    # tv decreases across epochs
    tv_at = dict(zip(run.ns.tolist(), run.tv_true))
    assert tv_at[led.n_big_k] < tv_at[0]
    assert tv_at[2 * led.n_big_k] < tv_at[led.n_big_k]


def test_deterministic_run_raises_at_the_first_step_past_the_envelope(bent, monkeypatch):
    # a negative slack puts every step past the envelope: the run stops at
    # n = 1, the first step it audits, after that step's two applications
    applied = []
    apply_ = coupling_lab.apply

    def counted(m, psi):
        applied.append(1)
        return apply_(m, psi)

    monkeypatch.setattr(coupling_lab, "apply", counted)
    monkeypatch.setattr(coupling_lab, "DETERMINISTIC_SLACK", -10.0)
    with pytest.raises(AuditViolation, match="exceeds envelope at n = 1 "):
        deterministic_contraction_run(bent, tilted(), uniform_density(M), 1.0, 5)
    assert len(applied) == 2


def test_deterministic_run_rejects_wild_start(bent):
    # far outside the admissible class: log-Hoelder above K is impossible
    # here, so build a density failing the positivity side instead
    spike = np.full(M, 1e-9)
    spike[0] = M
    with pytest.raises(AuditViolation):
        deterministic_contraction_run(
            bent, GridDensity(spike), uniform_density(M), 1.0, 5
        )


def test_monte_carlo_epoch_coin_statistics(doubling):
    led = compute_ledger(doubling, 1.0)
    trials = 20_000
    trace = monte_carlo_coupling(
        doubling, tilted(), uniform_density(M), 1.0, 2 * led.n_big_k,
        trials=trials, seed=7,
    )
    slack = 5.0 / math.sqrt(trials)
    # each epoch couples a Bernoulli(a) fraction of the uncoupled pairs
    assert trace.coins.shape == (2, trials)
    assert trace.coins[0].mean() == pytest.approx(led.a, abs=slack)
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


def test_monte_carlo_writes_the_audited_envelopes(bent, monkeypatch):
    # the bounds a trace carries are the very floats its deterministic run
    # audited tv against
    runs = []
    run = coupling_lab.deterministic_contraction_run

    def recorded(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(coupling_lab, "deterministic_contraction_run", recorded)
    n_max = compute_ledger(bent, 1.0).n_big_k + 5
    trace = monte_carlo_coupling(bent, tilted(), uniform_density(M), 1.0, n_max,
                                 trials=2000, seed=42)
    det, = runs
    for field in ("ns", "ks", "tv_true", "bound_coupling", "bound_theta"):
        a, b = getattr(trace, field), getattr(det, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_monte_carlo_is_seed_deterministic(doubling):
    runs = [
        monte_carlo_coupling(
            doubling, tilted(), uniform_density(M), 1.0, 12,
            trials=20_000, seed=42,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].empirical_mismatch, runs[1].empirical_mismatch)
    assert np.array_equal(runs[0].coins, runs[1].coins)
    other = monte_carlo_coupling(
        doubling, tilted(), uniform_density(M), 1.0, 12, trials=20_000, seed=43
    )
    assert not np.array_equal(runs[0].coins, other.coins)


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
                  "bound_theta", "coins"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert fast.chi2 == slow.chi2


def test_monte_carlo_flows_half_the_pairs_on_a_worker(bent, monkeypatch):
    # every step evaluates the 2 x 1000 points of the first 1000 pairs, as one
    # array, on one worker thread and the 2 x 1001 of the other 1001 on the
    # calling thread, whatever the timing
    trials, n_max = 2001, compute_ledger(bent, 1.0).n_big_k + 3
    caller = threading.get_ident()
    calls = []
    evaluate = coupling_lab.evaluate

    def recorded(m, x):
        calls.append((threading.get_ident(), np.size(x)))
        return evaluate(m, x)

    monkeypatch.setattr(coupling_lab, "evaluate", recorded)
    before = threading.active_count()
    trace = monte_carlo_coupling(bent, tilted(), uniform_density(M), 1.0, n_max,
                                 trials=trials, seed=42)
    assert threading.active_count() == before
    assert int(trace.ns[-1]) == n_max
    assert collections.Counter((t == caller, size) for t, size in calls) == {
        (True, 2002): n_max, (False, 2000): n_max}
    assert len({t for t, _ in calls}) == 2      # one worker for the whole run


class LiftFailure(RuntimeError):
    pass


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "caller"])
def test_monte_carlo_worker_fails_cleanly(bent, on_worker):
    # a lift that raises on its fourth call of the pair process on either
    # thread: the same exception leaves the run and no thread is left behind
    caller = threading.get_ident()
    calls = {True: 0, False: 0}             # per thread: is it the worker?

    def lift(x):
        if np.size(x) in (1000, 1002):      # the two halves of 1001 pairs
            worker = threading.get_ident() != caller
            calls[worker] += 1
            if worker == on_worker and calls[worker] == 4:
                raise LiftFailure("lift failed")
        return bent.lift(x)

    m = dataclasses.replace(bent, lift=lift)
    before = threading.active_count()
    with pytest.raises(LiftFailure):
        monte_carlo_coupling(m, tilted(), uniform_density(M), 1.0, 12,
                             trials=1001, seed=42)
    assert threading.active_count() == before
    assert calls[on_worker] == 4


def pair_order_flow(m, x, y, counts):
    """_flow as x and y stepped side by side in pair order."""
    u, v = x, y
    for i in range(counts.size):
        u = evaluate(m, u)
        v = evaluate(m, v)
        counts[i] = np.count_nonzero(u != v)
    x[...] = u
    y[...] = v


def flows_agree(m, x, y, steps):
    """Run _flow and pair_order_flow on copies of (x, y) and check that the
    points and the counts agree bit for bit; return the counts."""
    got, want = [(x.copy(), y.copy(), np.empty(steps)) for _ in range(2)]
    coupling_lab._flow(m, *got)
    pair_order_flow(m, *want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))
    return got[2]


def test_flow_equals_the_pair_order_reference(bent):
    # two full blocks and an odd tail, over more steps than two re-sorts;
    # every fifth pair starts coupled
    n = 2 * coupling_lab._FLOW_BLOCK + 3
    rng = np.random.Generator(np.random.Philox(key=23))
    x, y = rng.random(n), rng.random(n)
    y[::5] = x[::5]
    counts = flows_agree(bent, x, y, 2 * coupling_lab._RESORT_EVERY + 3)
    assert np.all(counts == n - len(x[::5]))


def test_flow_recounts_a_block_whose_pairs_meet(doubling, monkeypatch):
    # under x -> 2x mod 1 the pair (x, x + 1/2) meets after one step (x a
    # multiple of 2**-53 below 1/2, so x + 1/2 is exact), and float orbits
    # of the other pairs collapse onto 0 within 60 steps: every block's
    # count falls, so each is flowed again in pair order
    n = coupling_lab._FLOW_BLOCK + 5
    rng = np.random.Generator(np.random.Philox(key=29))
    x = rng.integers(0, 2**52, n) * 2.0**-53
    y = rng.random(n)
    y[::2] = x[::2] + 0.5
    sizes = []
    evaluate_ = coupling_lab.evaluate

    def recorded(m, v):
        sizes.append(np.size(v))
        return evaluate_(m, v)

    monkeypatch.setattr(coupling_lab, "evaluate", recorded)
    counts = flows_agree(doubling, x, y, 60)
    assert counts[0] == n // 2                 # the odd pairs
    assert counts[-1] == 0
    # each block is stepped sorted, then once more in pair order
    blocks = (coupling_lab._FLOW_BLOCK, 5)
    assert collections.Counter(sizes) == {
        **{2 * b: 60 for b in blocks}, **{b: 2 * 60 for b in blocks}}


@pytest.mark.parametrize("points", [300, 8000, 100_000])
def test_chi2_p_values_match_scipy_stats(points):
    rng = np.random.default_rng(points)
    for density, draws in ((uniform_density(M), rng.random(points)),
                           (tilted(), sample(tilted(), rng, points)),
                           (tilted(0.1), sample(tilted(), rng, points))):
        got = coupling_lab._chi2_marginal(draws, density)
        want = stats.chi2.sf(got["statistic"], coupling_lab.CHI2_BINS - 1)
        assert np.float64(got["p_value"]).view(np.int64) == np.float64(want).view(np.int64)
