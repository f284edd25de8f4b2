"""Coupling construction for two densities evolved by the same map.

Every ``N_K`` steps (one epoch) each evolved density splits as

    current = a * 1 + (1 - a) * residual,

with the residual certified to re-enter the admissible class, so after k
epochs the two evolutions share everything except a (1-a)^k fraction.
The module tracks this bookkeeping deterministically on the grid and also
realizes it as a Monte-Carlo pair process with per-epoch regeneration
coins of head probability a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle_map import ExpandingMap, evaluate
from .density_grid import (
    GridDensity,
    GridFunction,
    _cell_masses,
    inf_value,
    l1_distance,
    sample,
    uniform_density,
)
from .errors import AuditViolation, FloorViolation
from .system_constants import ConstantsLedger, compute_ledger, hoelder_class_check
from .transfer_operator import apply, check_bytes

# Slack on tv_true against each envelope.  It must cover tv_true's float
# floor, the node-mean L1 distance of two iterates that agree up to
# rounding, and the gap between the grid operator and L, whose stencil
# remainder is of order M^-4 per step.  Neither has a derived bound: 5e-6
# is no error model.  Measured on the five standard maps at M = 1024 and
# 4096 over 200 steps: the floor is at most 2.7e-16, and tv_true stays
# below both envelopes, which stay above 7.7e-5, so the slack is not used.
DETERMINISTIC_SLACK = 5e-6
# Tolerance on the L1 error of each epoch's reconstruction
# weight * residual + (1 - weight) * rho of the direct iterate.  In exact
# arithmetic the identity holds while the grid operator conserves mass;
# the floats add each step's rounding and the difference of the mass
# drifts that apply divides out (logged past DRIFT_WARN = 1e-8), which no
# bound covers.  Measured on the same runs: at most 5.0e-16.
RECONSTRUCTION_TOL = 1e-8
# A marginal chi-square p-value at or below this fails a Monte-Carlo run.
CHI2_P_FLOOR = 1e-4
CHI2_BINS = 64
# Bytes a Monte-Carlo run holds, estimated from above.  Per trial: x, y,
# four masks (coupled; and per epoch: equal at its start, newly coupled,
# tails) and, at the peak, sample's temporaries for the regenerated pairs:
# the draws, which become the points, their cell indices, cell masses and
# gathered CDF values, and two masks (about 34; the guide table is per cell,
# not per draw).
# Per step: six 8-byte series (n, k, tv, the two bounds, the mismatch),
# the final checks' temporaries and, at one-step epochs, the epoch's two
# chi-square records; the coupling command adds its CSV columns and
# streams its JSON.  No past epoch's grids or coins are kept.
# tracemalloc: about 55 bytes a trial (200k trials, perturbed{2,0.05},
# M = 4096, 50 steps); the whole coupling command, its files written,
# peaks 610 bytes a step higher at 16384 steps than at 8192 (1000 trials,
# M = 64) on perturbed{100,1}, whose epochs are one step long, and 101 and
# 114 higher at 40000 steps than at 20000 on perturbed{2,0.1} and {2,0.05}.
_TRIAL_BYTES = 8 + 8 + 4 + 64
_STEP_BYTES = 640


def decompose(psi: GridDensity, a: float) -> GridDensity:
    """Residual density (psi - a) / (1 - a) of the uniform extraction."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    lo = inf_value(psi)
    if lo < a:
        raise FloorViolation(
            f"inf psi = {lo:.6g} below the extracted component a = {a:.6g}"
        )
    return GridDensity((psi.values - a) / (1.0 - a))


@dataclass
class DeterministicCoupling:
    """Grid-level epoch bookkeeping for one pair of start densities, with
    one entry per step n = 0..n_max in each series."""

    ledger: ConstantsLedger
    ns: np.ndarray
    ks: np.ndarray                       # epochs completed, n // N_K
    tv_true: np.ndarray                  # L1 distance of the evolved pair
    bound_coupling: np.ndarray           # 2 (1-a)^k
    bound_theta: np.ndarray              # D theta^(alpha n)
    worst_reconstruction: float = 0.0    # max over epochs and the pair of L1 error

    def max_tv_excess(self) -> float:
        return float(np.max(np.maximum(self.tv_true - self.bound_coupling,
                                       self.tv_true - self.bound_theta)))


def _coupling_epochs(
    m: ExpandingMap,
    psi1: GridDensity,
    psi2: GridDensity,
    alpha: float,
    n_max: int,
):
    """deterministic_contraction_run one epoch at a time.  First yields the
    run, whose tv_true and worst_reconstruction fill in as the steps go;
    then, after each epoch's decompose and at n_max, (n, residual pair,
    (L^n psi1, L^n psi2)).  Keeps nothing from a past epoch."""
    led = compute_ledger(m, alpha)
    for which, psi in (("psi1", psi1), ("psi2", psi2)):
        if not hoelder_class_check(psi, led.big_k, led.alpha):
            raise AuditViolation(f"{which} is not in the admissible class (cap K)")
    a, n_epoch = led.a, led.n_big_k
    ns = np.arange(n_max + 1)
    ks = ns // n_epoch
    bound_coupling = 2.0 * (1.0 - a) ** ks
    bound_theta = led.d_exact * led.theta_exact ** (led.alpha * ns)
    tv_true = np.empty(n_max + 1)
    tv_true[0] = l1_distance(psi1, psi2)
    run = DeterministicCoupling(led, ns, ks, tv_true, bound_coupling, bound_theta)
    yield run
    direct = [psi1, psi2]
    # Until the first decompose the residuals are the direct densities
    # themselves, so each is applied once per step.
    resid = direct
    rho = None
    for n in range(1, n_max + 1):
        direct = [apply(m, d) for d in direct]
        resid = direct if n <= n_epoch else [apply(m, r) for r in resid]
        if rho is not None:
            rho = apply(m, rho)
        if n % n_epoch == 0:
            resid = [decompose(r, a) for r in resid]
            weight_prev = bound_coupling[n - n_epoch] / 2.0
            deposit = a * weight_prev
            if rho is None:
                rho = uniform_density(psi1.resolution)
            else:
                regen_prev = 1.0 - weight_prev
                rho = GridDensity(
                    (deposit + regen_prev * rho.values) / (deposit + regen_prev)
                )
            weight = bound_coupling[n] / 2.0
            err = max(
                l1_distance(
                    GridFunction(weight * resid[i].values + (1.0 - weight) * rho.values),
                    direct[i],
                )
                for i in range(2)
            )
            run.worst_reconstruction = max(run.worst_reconstruction, err)
            if err > RECONSTRUCTION_TOL:
                raise AuditViolation(
                    f"epoch reconstruction off by {err:.3e} at n = {n}"
                )
        tv = tv_true[n] = l1_distance(direct[0], direct[1])
        if (tv > bound_coupling[n] + DETERMINISTIC_SLACK
                or tv > bound_theta[n] + DETERMINISTIC_SLACK):
            raise AuditViolation(
                f"tv = {tv:.6g} exceeds envelope at n = {n} "
                f"(coupling {bound_coupling[n]:.6g}, theta {bound_theta[n]:.6g})"
            )
        if n % n_epoch == 0 or n == n_max:
            yield n, tuple(resid), tuple(direct)


def deterministic_contraction_run(
    m: ExpandingMap,
    psi1: GridDensity,
    psi2: GridDensity,
    alpha: float,
    n_max: int,
) -> DeterministicCoupling:
    """Evolve the pair for n_max steps, extracting the uniform component at
    every epoch and auditing tv against both envelope forms at every step,
    with slack DETERMINISTIC_SLACK."""
    epochs = _coupling_epochs(m, psi1, psi2, alpha, n_max)
    run = next(epochs)
    for _ in epochs:
        pass
    return run


def _chi2_marginal(points: np.ndarray, density: GridDensity) -> dict:
    """Chi-square comparison of sampled points against the density binned
    into CHI2_BINS equal arcs."""
    # imported here: the commands that run no Monte-Carlo coupling never
    # pay scipy.special's start-up
    from scipy.special import chdtrc

    M = density.resolution
    per_bin = _cell_masses(density).reshape(CHI2_BINS, M // CHI2_BINS).sum(axis=1)
    expected = per_bin / per_bin.sum() * points.size
    counts = np.bincount(np.minimum((points * CHI2_BINS).astype(np.int64), CHI2_BINS - 1),
                         minlength=CHI2_BINS).astype(float)
    stat = float(((counts - expected) ** 2 / expected).sum())
    return {
        "statistic": stat,
        "dof": CHI2_BINS - 1,
        "p_value": float(chdtrc(CHI2_BINS - 1, stat)),
    }


def _chi2_marginals(n: int, points: tuple, densities: tuple) -> list:
    """The chi-square checks of x and y at step n against their evolved
    densities, one entry each, tagged "x" and "y"."""
    return [{"n": n, "marginal": name, **_chi2_marginal(p, d)}
            for name, p, d in zip("xy", points, densities, strict=True)]


def _check_run_bytes(trials: int, n_max: int = 0) -> None:
    """Refuse, through check_bytes and before anything is allocated, a
    Monte-Carlo run of ``trials`` pairs over ``n_max`` steps whose
    estimated bytes pass the memory cap.  The default gives the smallest
    run of ``trials`` pairs."""
    steps = f" over {n_max} steps" if n_max else ""
    check_bytes(trials * _TRIAL_BYTES + n_max * _STEP_BYTES,
                f"a Monte-Carlo run of {trials} trials{steps} would hold about")


@dataclass
class CouplingTrace:
    """Per-step series of the Monte-Carlo coupling run."""

    ledger: ConstantsLedger
    trials: int
    seed: int
    ns: np.ndarray
    ks: np.ndarray
    tv_true: np.ndarray
    empirical_mismatch: np.ndarray
    bound_coupling: np.ndarray
    bound_theta: np.ndarray
    chi2: list                           # {n, marginal, statistic, dof, p_value}

    def summary(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "n_max": int(self.ns[-1]),
            "epochs": int(self.ks[-1]),
            "final_mismatch": float(self.empirical_mismatch[-1]),
            "final_tv": float(self.tv_true[-1]),
            "chi2": self.chi2,
            "ledger": self.ledger.to_dict(),
        }


def monte_carlo_coupling(
    m: ExpandingMap,
    psi1: GridDensity,
    psi2: GridDensity,
    alpha: float,
    n_max: int | None = None,
    *,
    trials: int = 100_000,
    seed: int = 42,
) -> CouplingTrace:
    """Simulate the coupled pair over ``trials`` independent runs.

    Marginals follow the evolved densities by construction: between epochs
    points flow deterministically under T; at each epoch an uncoupled pair
    regenerates jointly from the uniform pool with probability a, and
    otherwise resamples independently from the two epoch residuals.  So
    within a full epoch only the pairs equal at its start are stepped, and
    each step's mismatch is the fraction of pairs unequal at the epoch's
    start; a last, partial epoch steps every point, which its chi-square
    checks read.  The deterministic run evolves alongside, and each epoch
    is let go once its regeneration and chi-square checks are done.  Runs
    on the calling thread.

    Audits the mismatch envelope and the tv <= 2 P(X != Y) inequality at
    every step with Monte-Carlo slack 5/sqrt(trials), and both sampled
    marginals, x and y, against the evolved densities by chi-square tests
    at every epoch and at n_max.
    """
    led = compute_ledger(m, alpha)
    if n_max is None:
        n_max = 5 * led.n_big_k
    _check_run_bytes(trials, n_max)
    # The trials are independent, and a pair is counted unequal at step n
    # exactly when it is uncoupled (its points were drawn apart, and the
    # count is taken at the epoch's start), with probability
    # p_n <= (1 - a)^k.  The mismatch is a mean of trials Bernoulli(p_n)
    # draws.  By Hoeffding it passes p_n + slack, failing the envelope
    # check, with probability at most exp(-2 trials slack^2) = exp(-50).
    # Since tv <= 2 p_n (the coupling inequality), the check
    # tv <= 2 mismatch + slack fails only if the mismatch falls below
    # p_n - slack / 2, with probability at most exp(-12.5) = 3.7e-6.  Both
    # hold per epoch, as the mismatch is constant within one.
    slack = 5.0 / np.sqrt(trials)
    epochs = _coupling_epochs(m, psi1, psi2, alpha, n_max)
    det = next(epochs)
    a, n_epoch = led.a, led.n_big_k
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = sample(psi1, rng, trials)
    y = sample(psi2, rng, trials)
    coupled = np.zeros(trials, dtype=bool)
    mismatch = np.empty(n_max + 1)
    mismatch[0] = float(np.mean(x != y))
    chi2 = []
    for n, (res1, res2), marginals in epochs:
        rest = n % n_epoch
        if rest:
            # no regeneration follows a last, partial epoch, and its
            # chi-square checks read every point
            mismatch[n - rest + 1:] = np.count_nonzero(x != y) / trials
            for _ in range(rest):
                x = evaluate(m, x)
                y = evaluate(m, y)
        else:
            # Equal points stay equal under the map and distinct ones almost
            # surely never meet, so the epoch's unequal count holds at each
            # of its steps; and every unequal pair regenerates at the epoch's
            # end, so only the equal pairs flow.  Every coupled pair is equal.
            eq = x == y
            mismatch[n - n_epoch + 1:n] = np.count_nonzero(~eq) / trials
            z = x[eq]
            for _ in range(n_epoch):
                z = evaluate(m, z)
            x[eq] = z
            y[eq] = z
            coin = rng.random(trials) < a
            newly = coin & ~coupled
            tails = ~coin & ~coupled
            fresh = rng.random(int(newly.sum()))
            x[newly] = fresh
            y[newly] = fresh
            x[tails] = sample(res1, rng, int(tails.sum()))
            y[tails] = sample(res2, rng, int(tails.sum()))
            coupled |= newly
            mismatch[n] = float(np.mean(x != y))
        chi2 += _chi2_marginals(n, (x, y), marginals)
    ns, tv = det.ns, det.tv_true
    theoretical = det.bound_coupling / 2.0
    trace = CouplingTrace(
        ledger=led,
        trials=trials,
        seed=seed,
        ns=ns,
        ks=det.ks,
        tv_true=tv,
        empirical_mismatch=mismatch,
        bound_coupling=det.bound_coupling,
        bound_theta=det.bound_theta,
        chi2=chi2,
    )
    bad = mismatch > theoretical + slack
    if np.any(bad):
        n_bad = int(ns[bad][0])
        raise AuditViolation(
            f"empirical mismatch {mismatch[bad][0]:.6g} exceeds "
            f"{theoretical[bad][0]:.6g} + {slack:.3g} at n = {n_bad}"
        )
    bad = tv > 2.0 * mismatch + slack
    if np.any(bad):
        n_bad = int(ns[bad][0])
        raise AuditViolation(
            f"tv {tv[bad][0]:.6g} exceeds twice the empirical mismatch "
            f"+ {slack:.3g} at n = {n_bad}"
        )
    for c in chi2:
        if c["p_value"] <= CHI2_P_FLOOR:
            raise AuditViolation(f"{c['marginal']} marginal chi2 p-value "
                                 f"{c['p_value']:.3g} <= {CHI2_P_FLOOR:g} at n = {c['n']}")
    return trace
