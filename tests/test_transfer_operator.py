import gc
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from expcircle import density_grid, transfer_operator
from expcircle.audits import standard_maps
from expcircle.cli import main
from expcircle.errors import NonPositiveDensity
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
    l1_distance,
    linear_map,
    orbit,
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


def test_apply_is_the_normalized_raw_image(bent, caplog):
    # at M = 16 the raw image drifts past DRIFT_WARN from the second step:
    # the warning reports the raw node mean, and the result is that image
    # divided by it, as GridDensity divides
    psi = uniform_density(16)
    for _ in range(3):
        raw = apply_function(bent, psi)
        caplog.clear()
        with caplog.at_level("WARNING", logger=transfer_operator.logger.name):
            out = apply(bent, psi)
        drift = abs(integrate(raw) - 1.0)
        assert [r.getMessage() for r in caplog.records] == (
            [f"transfer step mass drift {drift:.3e} on perturbed{{2,0.05}} at M=16"]
            if drift > transfer_operator.DRIFT_WARN else [])
        assert np.array_equal(out.values, GridDensity(raw.values).values)
        psi = out
    assert drift > transfer_operator.DRIFT_WARN


@pytest.mark.parametrize("w", [2, 3])
def test_apply_function_is_the_clamped_branch_sum_bit_for_bit(w):
    # the branches added in order are the floats of the (w, M) reduction,
    # and a density's image is clamped like any nonnegative input's
    m = perturbed_map(w, 0.05)
    E, wgt = transfer_operator._operator(m, M)
    rough = np.abs(np.random.Generator(np.random.Philox(key=w)).normal(size=M))
    for f in (GridFunction(cos_k(1) + 0.3 * cos_k(5)), GridFunction(rough),
              GridDensity(rough), smooth_density(w)):
        ev = E @ f.values
        if f.values.min() >= 0.0:
            ev = np.maximum(ev, 0.0)
        want = (ev.reshape(wgt.shape) * wgt).sum(axis=0)
        got = apply_function(m, f).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_apply_leaves_its_input_and_returns_a_read_only_image(bent):
    psi = smooth_density(3)
    before = psi.values.copy()
    for step in (apply, apply_function):
        out = step(bent, psi)
        assert np.array_equal(psi.values.view(np.int64), before.view(np.int64))
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, psi.values)
        with pytest.raises(ValueError):
            out.values[0] = 1.0
    assert type(apply(bent, psi)) is GridDensity


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
    lhs = apply_function(bent, GridFunction(f.values + 2.5 * g.values)).values
    rhs = apply_function(bent, f).values + 2.5 * apply_function(bent, g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_duality_with_composition(bent, bent_phi):
    # int (f o T) g dm = int f (L g) dm
    f = GridFunction(cos_k(1))
    g = GridFunction(np.exp(0.2 * cos_k(2)))
    def T(x):
        return (2.0 * x + 0.05 * np.sin(2 * np.pi * x)) % 1.0
    lhs = integrate(GridFunction(np.cos(2 * np.pi * T(X)) * g.values))
    rhs = integrate(GridFunction(f.values * apply_function(bent, g).values))
    assert lhs == pytest.approx(rhs, abs=5e-3)


def test_cesaro_average_nearly_fixed(bent):
    psi = smooth_density(7)
    for n, avg in zip((5, 25), cesaro(bent, psi, (5, 25)), strict=True):
        moved = l1_distance(apply(bent, avg), avg)
        assert moved <= 2.0 / n + 1e-10
    with pytest.raises(ValueError):
        cesaro(bent, psi, (0,))


def test_cesaro_averages_every_length_from_one_walk(bent, count_work):
    psi = smooth_density(7)
    counts = count_work()
    got = cesaro(bent, psi, (25, 1, 5))
    assert counts["apply"] == 24
    # each average has the bits of its own walk, summed from L^0 psi up
    for n, avg in zip((25, 1, 5), got, strict=True):
        acc = np.array(psi.values)
        for cur in itertools.islice(orbit(bent, psi), 1, n):
            acc += cur.values
        assert np.array_equal(avg.values, GridDensity(acc / n).values)


def test_doubling_preserves_lebesgue(doubling):
    phi, diag = invariant_density(doubling)
    assert sup_norm(GridFunction(phi.values - 1.0)) < 1e-12
    assert diag.n_steps <= 2


def test_iteration_diagnostics_hold_one_entry_per_step(bent):
    phi, diag = invariant_density(bent, tol=1e-12)
    assert diag.n_steps > 2
    for column in (diag.l1_diff, diag.sup, diag.inf, diag.d_l1):
        assert column.shape == (diag.n_steps,)
    assert diag.l1_diff[-1] < 1e-12 <= diag.l1_diff[-2]
    assert diag.sup[-1] == sup_norm(phi) and diag.inf[-1] == inf_value(phi)


def test_invariant_density_is_fixed_and_unique(bent):
    phi, _ = invariant_density(bent, tol=1e-12)
    assert l1_distance(apply(bent, phi), phi) < 1e-12
    assert integrate(phi) == pytest.approx(1.0, abs=1e-12)
    other, _ = invariant_density(bent, psi0=smooth_density(11), tol=1e-12)
    assert l1_distance(phi, other) < 1e-8


def test_invariant_density_budget(bent, monkeypatch):
    monkeypatch.setattr(transfer_operator, "INVARIANT_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="within 1 steps"):
        invariant_density(bent)


def orbit_inputs():
    """A density, stepped by apply, and a signed function, stepped by
    apply_function."""
    return [(GridDensity(np.exp(0.3 * cos_k(1))), apply),
            (GridFunction(cos_k(1) + 0.2 * np.sin(2 * np.pi * 3 * X)), apply_function)]


def test_orbit_matches_a_hand_loop_bit_for_bit(bent):
    for f, step in orbit_inputs():
        ref = f
        for n, cur in enumerate(itertools.islice(orbit(bent, f), 20)):
            if n:
                ref = step(bent, ref)
            assert type(cur) is type(f)
            assert np.array_equal(cur.values, ref.values), (step.__name__, n)


def test_orbit_applies_once_per_iterate_read(bent, count_work):
    for f, _ in orbit_inputs():
        for n in (0, 1, 7):
            counts = count_work()
            assert len(list(itertools.islice(orbit(bent, f), n + 1))) == n + 1
            assert counts["apply"] == n


def test_iterate_sup_and_c1_caps(bent):
    f = GridFunction(np.exp(0.2 * cos_k(1)))
    rows = check_growth_bounds(bent, f, (1, 5, 15))
    assert len(rows) == 3
    omega = transfer_operator.compute_ledger(bent, 1.0).omega
    for sup_lhs, sup_cap, c1_lhs, c1_cap in rows:
        # each cap is the bound with its 2% slack
        assert sup_cap == (1.0 + omega) * sup_norm(f) * 1.02
        assert c1_cap == (1.0 + omega) ** 2 * transfer_operator._c1_size(f) * 1.02
        assert sup_lhs <= sup_cap and c1_lhs <= c1_cap


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


def reference_stencil(y, M):
    """(cols, coef), each (len(y), 4): the periodic 4-point Lagrange
    stencil of the M-node grid at the points y, in column order j-1, j,
    j+1, j+2."""
    u = (y % 1.0) * M
    j = np.floor(u).astype(np.int64)
    t = u - j
    j %= M
    cols = np.stack([(j - 1) % M, j, (j + 1) % M, (j + 2) % M], axis=1)
    coef = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                     (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                     -(t + 1.0) * t * (t - 2.0) / 2.0,
                     (t + 1.0) * t * (t - 1.0) / 6.0], axis=1)
    return cols, coef


def reference_stencil_eval(values, y, clamp):
    """Periodic 4-point Lagrange evaluation of the node sequence at y."""
    cols, coef = reference_stencil(y, values.size)
    out = (
        values[cols[:, 0]] * coef[:, 0]
        + values[cols[:, 1]] * coef[:, 1]
        + values[cols[:, 2]] * coef[:, 2]
        + values[cols[:, 3]] * coef[:, 3]
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


def test_central_differences_match_the_rolled_reference():
    rng = np.random.Generator(np.random.Philox(key=5))
    for size in (8, 4096):
        v = rng.normal(size=size)
        ref = np.abs((np.roll(v, -1) - np.roll(v, 1)) * (size / 2.0))
        assert np.array_equal(transfer_operator._central_differences(v), ref)


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


def traced_build(m, resolution):
    """(E, wgt, peak, kept): the operator of ``m`` at ``resolution`` and the
    bytes its build allocated at its peak and still holds at its end."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        E, wgt = transfer_operator._build_operator(m, resolution)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return E, wgt, peak - start, kept - start


def test_operator_table_bytes_per_row():
    # a stencil row keeps 4 float64 weights, 4 int32 columns, its int32 row
    # pointer and one 1/T': 60 bytes; the build works one block of nodes at
    # a time, and keeps the bits of a whole-branch solve
    M = 65536
    for m in standard_maps():
        rows = m.winding * M
        E, wgt, peak, kept = traced_build(m, M)
        assert E.indices.dtype == E.indptr.dtype == np.int32
        assert peak <= transfer_operator.TABLE_PEAK_BYTES_PER_ROW * rows, m
        assert kept <= 64 * rows, m
        y, ref_wgt = reference_tables(m, M)
        cols, coef = reference_stencil(y.ravel(), M)
        assert np.array_equal(wgt, ref_wgt), m
        assert np.array_equal(E.indices, cols.ravel()), m
        assert np.array_equal(E.data, coef.ravel()), m
        assert np.array_equal(E.indptr, np.arange(0, 4 * rows + 1, 4)), m


def test_index_width_widens_only_past_int32():
    # the largest row pointer is 4 w M; nothing is allocated here
    index_dtype = transfer_operator._index_dtype
    assert index_dtype(3, 65536) == np.int32
    assert index_dtype(64, 2**22) == np.int32
    assert index_dtype(1, 536870911) == np.int32       # 4 w M + 1 = 2**31 - 3
    assert index_dtype(1, 536870912) == np.int64       # 4 w M + 1 = 2**31 + 1
    assert index_dtype(64, 2**23) == np.int64


def test_table_above_the_memory_cap_is_refused_unbuilt(builds, tmp_path, capsys):
    # linear{64} at the smallest M whose table would peak above the cap
    # (2**21 with 7.8 GiB of memory, 2**20 with 7 GiB); only the M-node
    # starting density is allocated before the refusal
    per_node = 64 * transfer_operator.TABLE_PEAK_BYTES_PER_ROW
    M = 1 << (transfer_operator.TABLE_BYTES_CAP // per_node).bit_length()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"map": {"family": "linear", "w": 64}}))
    out = tmp_path / "out"
    assert main(["invariant", "--config", str(cfg), "--resolution", str(M),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the operator table of linear{64}")
    assert err.count("\n") == 1
    assert builds == []
    assert not out.exists()


def test_non_finite_products_are_refused(monkeypatch):
    m = linear_map(2)
    E, wgt = transfer_operator._operator(m, M)
    for bad in (np.nan, np.inf):
        poisoned = wgt.copy()
        poisoned[1, 7] = bad
        monkeypatch.setitem(transfer_operator._OPERATORS[m], M, (E, poisoned))
        for f in (GridFunction(cos_k(1)), uniform_density(M)):
            with pytest.raises(ValueError, match="grid values must be finite"):
                apply_function(m, f)
        with pytest.raises(ValueError, match="grid values must be finite"):
            apply(m, uniform_density(M))
        raw = np.ones(M)
        raw[7] = bad
        with pytest.raises(ValueError, match="grid values must be finite"):
            density_grid._owned(raw.copy())
        with pytest.raises(ValueError, match="grid values must be finite"), \
                np.errstate(invalid="ignore"):     # inf / inf
            GridDensity(raw)
    with pytest.raises(NonPositiveDensity, match="negative node value"):
        GridDensity(-np.ones(M))
    with pytest.raises(NonPositiveDensity, match="negative node value"):
        GridDensity(np.full(M, -np.inf))
    with pytest.raises(NonPositiveDensity, match="zero total mass"):
        GridDensity(np.zeros(M))
