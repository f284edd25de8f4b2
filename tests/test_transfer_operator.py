import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from expcircle import transfer_operator
from expcircle.audits import standard_maps
from expcircle.inverse_branches import _anchor_offset, _solve_lift
from expcircle import (
    GridDensity,
    GridFunction,
    NoConvergence,
    apply,
    apply_function,
    cesaro,
    check_growth_bounds,
    integrate,
    invariant_density,
    inf_value,
    iterate,
    l1_distance,
    linear_map,
    perturbed_map,
    sup_norm,
    uniform_density,
)

M = 4096
X = np.arange(M) / M


def cos_k(k):
    return np.cos(2 * np.pi * k * X)


def smooth_density(seed, scale=0.5):
    rng = np.random.Generator(np.random.Philox(key=seed))
    logv = np.zeros(M)
    for k in range(1, 9):
        a, b = rng.normal(size=2) * scale / (1 + k) ** 2
        logv += a * cos_k(k) + b * np.sin(2 * np.pi * k * X)
    v = np.exp(logv)
    return GridDensity(v / v.mean())


def test_mass_is_conserved(doubling, bent):
    for m in (doubling, bent):
        for seed in range(5):
            psi = smooth_density(seed)
            out = apply(m, psi)
            assert integrate(out) == pytest.approx(integrate(psi), abs=1e-12)


def test_positivity_is_exact(bent):
    # rough input: |normal noise| has kinks at its zero crossings
    rng = np.random.Generator(np.random.Philox(key=99))
    v = np.abs(rng.normal(size=M)) + 1e-6
    cur = GridDensity(v / v.mean())
    for _ in range(3):
        cur = apply(bent, cur)
        assert inf_value(cur) >= 0.0


def test_l1_contraction_on_differences(bent):
    for seed in range(5):
        u = GridFunction(smooth_density(seed).values - smooth_density(seed + 50).values)
        out = apply_function(bent, u)
        assert integrate(GridFunction(np.abs(out.values))) <= (
            integrate(GridFunction(np.abs(u.values))) + 1e-10
        )


def test_doubling_halves_frequencies(doubling):
    # L cos(2 pi 2^j x) = cos(2 pi 2^(j-1) x); L cos(2 pi x) = 0.  The
    # grid error of the halving grows like (frequency/M)^4.
    assert sup_norm(apply_function(doubling, GridFunction(cos_k(1)))) < 1e-12
    for j, tol in ((1, 1e-10), (2, 1e-10), (3, 1e-9), (4, 1e-8)):
        out = apply_function(doubling, GridFunction(cos_k(2**j)))
        assert np.max(np.abs(out.values - cos_k(2 ** (j - 1)))) < tol


def test_tripling_annihilates_non_multiples(tripling):
    out = apply_function(tripling, GridFunction(cos_k(3)))
    assert np.max(np.abs(out.values - cos_k(1))) < 1e-10
    assert sup_norm(apply_function(tripling, GridFunction(cos_k(2)))) < 1e-10


def test_apply_function_is_linear(bent):
    f = GridFunction(cos_k(1))
    g = GridFunction(np.sin(2 * np.pi * 2 * X))
    lhs = apply_function(bent, f + 2.5 * g)
    rhs = apply_function(bent, f) + 2.5 * apply_function(bent, g)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_duality_with_composition(bent, bent_phi):
    # int (f o T) g dm = int f (L g) dm
    f = GridFunction(cos_k(1))
    g = GridFunction(np.exp(0.2 * cos_k(2)))
    def T(x):
        return (2.0 * x + 0.05 * np.sin(2 * np.pi * x)) % 1.0
    lhs = integrate(GridFunction(np.cos(2 * np.pi * T(X)) * g.values))
    rhs = integrate(GridFunction(f.values * apply_function(bent, g).values))
    assert lhs == pytest.approx(rhs, abs=5e-3)


def test_iterate_bookkeeping(bent):
    psi = smooth_density(3)
    same, diag = iterate(bent, psi, 0)
    assert same is psi and diag.n_steps == 0
    out, diag = iterate(bent, psi, 4)
    assert diag.n_steps == 4
    assert [r.step for r in diag.records] == [1, 2, 3, 4]
    # successive differences shrink
    l1 = [r.l1_diff for r in diag.records]
    assert l1[-1] < l1[0]
    with pytest.raises(ValueError):
        iterate(bent, psi, -1)


def test_cesaro_average_nearly_fixed(bent):
    psi = smooth_density(7)
    for n in (5, 25):
        avg = cesaro(bent, psi, n)
        moved = l1_distance(apply(bent, avg), avg)
        assert moved <= 2.0 / n + 1e-10
    with pytest.raises(ValueError):
        cesaro(bent, psi, 0)


def test_doubling_preserves_lebesgue(doubling):
    phi, diag = invariant_density(doubling)
    assert sup_norm(GridFunction(phi.values - 1.0)) < 1e-12
    assert diag.n_steps <= 2


def test_invariant_density_is_fixed_and_unique(bent):
    phi, _ = invariant_density(bent, tol=1e-12)
    assert l1_distance(apply(bent, phi), phi) < 1e-12
    assert integrate(phi) == pytest.approx(1.0, abs=1e-12)
    other, _ = invariant_density(bent, psi0=smooth_density(11), tol=1e-12)
    assert l1_distance(phi, other) < 1e-8


def test_invariant_density_budget(bent):
    with pytest.raises(NoConvergence):
        invariant_density(bent, max_iter=1)


def test_iterate_sup_and_c1_caps(bent):
    f = GridFunction(np.exp(0.2 * cos_k(1)))
    rows = check_growth_bounds(bent, f, (1, 5, 15))
    assert len(rows) == 3
    for sup_lhs, sup_rhs, c1_lhs, c1_rhs, ok in rows:
        assert ok and sup_lhs <= sup_rhs * 1.02 and c1_lhs <= c1_rhs * 1.02


def reference_tables(m, resolution):
    """Node preimages under each depth-one branch and the weights 1/T'
    there, both (winding, resolution), solved from scratch."""
    x = np.arange(resolution) / resolution
    m0 = _anchor_offset(m)
    y = np.empty((m.winding, resolution))
    for b in range(m.winding):
        y[b] = _solve_lift(m, m0 + b + x)
    wgt = 1.0 / m.dlift(y)
    return y % 1.0, wgt


def reference_stencil_eval(values, y, clamp):
    """Periodic 4-point Lagrange evaluation of the node sequence at y."""
    M = values.size
    u = (y % 1.0) * M
    j = np.floor(u).astype(np.int64)
    t = u - j
    j %= M
    vm1 = values[(j - 1) % M]
    v0 = values[j]
    v1 = values[(j + 1) % M]
    v2 = values[(j + 2) % M]
    out = (
        vm1 * (-t * (t - 1.0) * (t - 2.0) / 6.0)
        + v0 * ((t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0)
        + v1 * (-(t + 1.0) * t * (t - 2.0) / 2.0)
        + v2 * ((t + 1.0) * t * (t - 1.0) / 6.0)
    )
    if clamp:
        np.maximum(out, 0.0, out=out)
    return out


def reference_apply(tables, values):
    y, wgt = tables
    ev = reference_stencil_eval(values, y.ravel(), clamp=bool(np.all(values >= 0.0)))
    return (ev.reshape(y.shape) * wgt).sum(axis=0)


@pytest.mark.parametrize("resolution", [16, 512, 4096, 65536])
def test_apply_matches_the_pointwise_stencil_bit_for_bit(resolution):
    x = np.arange(resolution) / resolution
    rng = np.random.Generator(np.random.Philox(key=resolution))
    inputs = {
        "density": np.exp(0.3 * np.cos(2 * np.pi * x)),
        "signed": np.cos(2 * np.pi * x) + 0.1 * rng.normal(size=resolution),
    }
    for m in standard_maps():
        tables = reference_tables(m, resolution)
        for kind, v in inputs.items():
            ref, cur = v, GridFunction(v)
            for step in range(1, 21):
                ref = reference_apply(tables, ref)
                cur = apply_function(m, cur)
                assert np.array_equal(cur.values, ref), (m, kind, step)


@pytest.fixture
def builds(monkeypatch):
    """Resolutions of the operators built while the test runs, in order."""
    built = []
    build = transfer_operator._build_operator

    def counting_build(m, resolution):
        built.append(resolution)
        return build(m, resolution)

    monkeypatch.setattr(transfer_operator, "_build_operator", counting_build)
    return built


def test_operator_is_built_once_and_freed_with_its_map(builds):
    cache = transfer_operator._OPERATORS
    m = linear_map(2)
    f = GridFunction(cos_k(1))
    apply_function(m, f)
    apply_function(m, f)
    assert builds == [M]
    assert list(cache[m]) == [M]
    alive = weakref.ref(m)
    gc.collect()
    held = len(cache)
    del m
    gc.collect()
    assert alive() is None
    assert len(cache) == held - 1


def test_concurrent_first_applies_share_one_build(builds):
    m = perturbed_map(2, 0.05)
    f = GridFunction(cos_k(1))
    outs = []
    start = threading.Barrier(8, timeout=60)

    def first_apply():
        start.wait()
        outs.append(apply_function(m, f))

    threads = [threading.Thread(target=first_apply) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [M]
    assert len(outs) == 8
    assert all(np.array_equal(o.values, outs[0].values) for o in outs)
