import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

import expcircle.density_grid as density_grid
from expcircle import cli
from expcircle import (
    GridDensity,
    GridFunction,
    NonPositiveDensity,
    ResolutionMismatch,
    holder_coefficient,
    holder_profile,
    holder_profiles,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    sample,
    sup_norm,
    uniform_density,
)
from expcircle.audits import _smooth_functions, density_family

M = 4096
X = np.arange(M) / M
COS = np.cos(2 * np.pi * X)
DIST0 = np.minimum(X, 1.0 - X)  # circle distance to the origin


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GridFunction(np.zeros(1000))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction([0.0, np.inf] + [0.0] * 6)


def test_grid_function_is_immutable():
    f = GridFunction(np.zeros(8))
    with pytest.raises(AttributeError):
        f.values = np.ones(8)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_density_normalizes_and_rejects_negatives():
    d = GridDensity(2.0 + COS)
    assert d.values.mean() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NonPositiveDensity):
        GridDensity(COS)
    with pytest.raises(NonPositiveDensity):
        GridDensity(np.zeros(8))


def test_constant_density_normalizes_to_exactly_one():
    # the rounded node mean of these constant vectors is off by an ulp or two
    for c in (0.1, 0.3, 0.9, 3.3):
        assert np.all(GridDensity(np.full(M, c)).values == 1.0)


def test_evaluate_interpolates_linearly():
    f = GridFunction(np.arange(8.0))
    assert f.evaluate(0.0) == 0.0
    assert f.evaluate(1.0 / 16) == pytest.approx(0.5, abs=1e-15)
    # periodic wrap between the last node and the first
    assert f.evaluate(1.0 - 1.0 / 16) == pytest.approx(3.5, abs=1e-12)


def test_resolution_guard():
    with pytest.raises(ResolutionMismatch):
        l1_distance(GridFunction(np.ones(16)), GridFunction(np.ones(32)))


def test_integrate_known_values():
    assert integrate(uniform_density(M)) == pytest.approx(1.0, abs=1e-15)
    assert abs(integrate(GridFunction(COS))) < 1e-15
    assert integrate(GridFunction(DIST0**2)) == pytest.approx(
        1.0 / 12.0, rel=1e-5
    )


def test_l1_distance_of_half_cosine_bump():
    # int |0.5 cos(2 pi x)| dx = 1 / pi
    psi = GridDensity(1.0 + 0.5 * COS)
    assert l1_distance(psi, uniform_density(M)) == pytest.approx(
        1.0 / math.pi, rel=2e-3
    )


def test_norms_and_lipschitz():
    f = GridFunction(COS)
    assert sup_norm(f) == 1.0
    assert inf_value(f) == -1.0
    assert lipschitz_estimate(f) == pytest.approx(2 * math.pi, rel=2e-3)
    assert lipschitz_estimate(GridFunction(DIST0)) == pytest.approx(1.0, abs=1e-12)


def test_holder_known_coefficients():
    assert holder_coefficient(GridFunction(COS), 1.0) == pytest.approx(
        2 * math.pi, rel=2e-3
    )
    # the circle-distance cusp is exactly 1-Lipschitz ...
    assert holder_coefficient(GridFunction(DIST0), 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    # ... and its alpha-th power is exactly alpha-Hoelder with coefficient 1
    for a in (0.3, 0.5):
        assert holder_coefficient(GridFunction(DIST0**a), a) == pytest.approx(
            1.0, rel=1e-9
        )


def brute_force_holder(rows, alphas, block=64):
    """Reference sup |f_i - f_j| / d(i, j)^alpha over every node pair i != j
    of each row of ``rows``, one block of i at a time."""
    k, n = rows.shape
    j = np.arange(n)
    best = np.zeros((k, len(alphas)))
    for i0 in range(0, n, block):
        i = np.arange(i0, min(i0 + block, n))[:, None]
        lag = np.abs(i - j)
        dist = np.minimum(lag, n - lag) / n
        dist[lag == 0] = np.inf
        gaps = np.abs(rows[:, i0:i0 + block, None] - rows[:, None, :])
        for col, a in enumerate(alphas):
            best[:, col] = np.maximum(best[:, col], (gaps / dist**a).max(axis=(1, 2)))
    return best


@pytest.mark.parametrize("res", [512, 4096])
def test_holder_profile_matches_every_node_pair(res):
    x = np.arange(res) / res
    dist0 = np.minimum(x, 1.0 - x)
    densities = density_family(res)
    rng = np.random.Generator(np.random.Philox(key=104))
    inputs = [
        *densities,
        *(log_transform(psi) for psi in densities),
        GridFunction(dist0**0.3),
        GridFunction(dist0),  # for alpha < 1 its sup is at the antipodal lag M/2
        next(_smooth_functions(rng, res)),
        GridFunction(rng.normal(size=res)),
        GridFunction(np.full(res, 2.5)),
    ]
    alphas = (0.3, 0.5, 1.0)
    ref = brute_force_holder(np.stack([f.values for f in inputs]), alphas)
    for f, row in zip(inputs, ref):
        assert holder_profile(f, alphas) == tuple(row.tolist())


def test_lipschitz_coefficient_needs_no_lag_scan(monkeypatch):
    scans = []
    real = density_grid._lag_scan
    monkeypatch.setattr(density_grid, "_lag_scan",
                        lambda *args: scans.append(args) or real(*args))
    res = 65536
    cos = GridFunction(np.cos(2 * np.pi * np.arange(res) / res))
    assert holder_coefficient(cos, 1.0) == lipschitz_estimate(cos)
    assert holder_profile(cos, (1.0, 1.0)) == (lipschitz_estimate(cos),) * 2
    # a constant has coefficient 0 at every alpha, without a scan
    assert holder_profile(GridFunction(np.full(res, 2.5)), (0.3, 0.5, 1.0)) == (0.0,) * 3
    assert not scans
    holder_profile(GridFunction(COS), (0.5, 1.0))
    assert len(scans) == 1


def lag_gaps(f):
    """The largest float |f_j - f_k| over node pairs at each lag 1..M/2,
    from a scan of every lag, 16 lags at a time."""
    v = f.values
    M = f.resolution
    half = M // 2
    rolled = sliding_window_view(np.concatenate([v, v[:half]]), M)[1:]
    gaps = np.empty(half)
    buf = np.empty((16, M))
    for s in range(0, half, 16):
        block = rolled[s:s + 16]
        out = buf[:len(block)]
        np.subtract(block, v, out=out)
        np.abs(out, out=out)
        out.max(axis=1, out=gaps[s:s + len(block)])
    return gaps


def full_lag_profile(f, alphas):
    """holder_profile from lag_gaps, a scan of every lag: the kernel before
    blocks of lags were pruned, kept as the reference."""
    M = f.resolution
    lags = np.arange(1, M // 2 + 1)
    dists = np.minimum(lags, M - lags) / M
    gaps = lag_gaps(f)
    return tuple(lipschitz_estimate(f) if a == 1.0
                 else float((gaps / dists ** a).max()) for a in alphas)


SCAN_KINDS = ("fourier", "exp-fourier", "noise", "spike", "step", "constant",
              "constant-ulps", "cusp-power", "cusp", "log-density")


def scan_input(kind, M, rng):
    """One input of the pruned-scan property test at resolution M."""
    x = np.arange(M) / M
    dist0 = np.minimum(x, 1.0 - x)
    k = np.arange(1, 5)[:, None]
    fourier = (rng.normal(size=(4, 1)) * np.cos(2 * np.pi * k * x)
               + rng.normal(size=(4, 1)) * np.sin(2 * np.pi * k * x)).sum(axis=0)
    c = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
    values = {
        "fourier": lambda: fourier,
        "exp-fourier": lambda: np.exp(fourier),
        "noise": lambda: rng.normal(size=M),
        "spike": lambda: np.where(np.arange(M) == rng.integers(M), c, 0.0),
        "step": lambda: np.tanh(rng.uniform(1.0, 500.0) * (x - rng.uniform())),
        "constant": lambda: np.full(M, c),
        "constant-ulps": lambda: c + np.spacing(c) * rng.integers(-1, 2, M),
        "cusp-power": lambda: dist0 ** rng.uniform(0.05, 1.0),
        "cusp": lambda: dist0,
        "log-density": lambda: log_transform(
            density_family(M)[rng.integers(3)]).values,
    }
    return GridFunction(values[kind]())


@given(st.sampled_from(SCAN_KINDS), st.sampled_from((8, 16, 64, 512)),
       st.integers(min_value=0, max_value=2**32),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                max_size=3))
@settings(max_examples=300, deadline=None)
def test_pruned_scan_equals_full_lag_scan(kind, M, seed, extra):
    f = scan_input(kind, M, np.random.Generator(np.random.Philox(key=seed)))
    alphas = (0.3, 0.5, 1.0, *extra)
    assert holder_profile(f, alphas) == full_lag_profile(f, alphas)


CHAIN_STEPS = ("perturb", "argmax", "cusp", "ulps", "unrelated", "constant",
               "resolution")


def chain_step(step, f, rng):
    """The grid function that follows ``f`` in a chain of the chained-scan
    property test."""
    v = f.values
    M = v.size
    if step == "perturb":       # noise of 1e-15 to 1e-2 times the size of f
        size = 10.0 ** rng.integers(-15, -1) * max(float(np.abs(v).max()), 1.0)
        return GridFunction(v + size * rng.normal(size=M))
    if step == "argmax":        # move one end of a pair attaining a supremum
        half = M // 2
        gaps = np.abs(sliding_window_view(np.concatenate([v, v[:half]]), M)[1:] - v)
        q = gaps / (np.arange(1, half + 1)[:, None] / M) ** rng.choice((0.3, 0.5))
        lag, j = np.unravel_index(np.argmax(q), q.shape)
        k = (j + lag + 1) % M
        w = v.copy()
        w[j] += rng.uniform(-1.0, 1.0) * (v[k] - v[j])
        return GridFunction(w)
    if step == "cusp":          # a cusp as large as f, whose sup is antipodal
        dist = np.minimum(np.arange(M), M - np.arange(M)) / M
        size = rng.uniform(0.0, 2.0) * float(v.max() - v.min())
        return GridFunction(v + size * np.roll(dist, rng.integers(M)))
    if step == "ulps":
        return GridFunction(v + np.spacing(v) * rng.integers(-1, 2, M))
    if step == "unrelated":
        return scan_input(str(rng.choice(SCAN_KINDS)), M, rng)
    if step == "constant":
        return GridFunction(np.full(M, rng.normal()))
    other = [r for r in (8, 16, 64, 512) if r != M]      # "resolution"
    return scan_input(str(rng.choice(SCAN_KINDS)), int(rng.choice(other)), rng)


@given(st.sampled_from(SCAN_KINDS), st.sampled_from((8, 16, 64, 512)),
       st.integers(min_value=0, max_value=2**32),
       st.lists(st.sampled_from(CHAIN_STEPS), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                max_size=2))
@settings(max_examples=200, deadline=None)
def test_chained_scans_equal_full_lag_scans(kind, M, seed, steps, extra):
    rng = np.random.Generator(np.random.Philox(key=seed))
    chain = [scan_input(kind, M, rng)]
    for step in steps:
        chain.append(chain_step(step, chain[-1], rng))
    alphas = (0.3, 0.5, 1.0, *extra)
    envelopes = []
    real = density_grid._lag_scan

    def record(f, *args):
        sups, env = real(f, *args)
        envelopes.append((f, env))
        return sups, env

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_grid, "_lag_scan", record)
        profiles = list(holder_profiles(chain, alphas))
    assert profiles == [full_lag_profile(f, alphas) for f in chain]
    # every envelope handed on bounds each gap of its function
    for f, env in envelopes:
        assert (lag_gaps(f) <= env).all()


def test_pruned_scan_maximum_in_its_last_block(monkeypatch):
    # a ripple makes the Lipschitz bound useless, so the block bounds fall
    # with the lag while the quotients rise to the antipode: every block is
    # visited, and the last one holds the maximum
    res = 512
    x = np.arange(res) / res
    v = np.minimum(x, 1.0 - x) + 0.01 * (-1.0) ** np.arange(res)
    f = GridFunction(v)
    lags = np.arange(1, res // 2 + 1)
    gaps = np.array([np.abs(np.roll(v, -lag) - v).max() for lag in lags])
    visited = []
    real = density_grid._scan_rows

    def record(rows, *args):   # the first lag of the block, from its rows
        visited.append(next(lag for lag in lags
                            if np.array_equal(rows[0], np.roll(v, -lag))))
        return real(rows, *args)

    monkeypatch.setattr(density_grid, "_scan_rows", record)
    for a in (0.3, 0.5):
        visited.clear()
        assert holder_profile(f, (a,)) == full_lag_profile(f, (a,))
        top = int(lags[np.argmax(gaps / (lags / res) ** a)])
        assert sorted(visited) == list(range(1, res // 2, 16))
        assert visited[-1] <= top < visited[-1] + 16


def test_scan_buffers_start_on_a_cache_line():
    for n in (1, 7, 8, 6144, 16 * 4096):
        a = density_grid._line_aligned(n)
        assert a.shape == (n,) and a.dtype == np.float64
        assert a.__array_interface__["data"][0] % 64 == 0


def test_holder_profile_matches_pointwise_calls():
    f = GridFunction(np.exp(COS))
    alphas = (0.3, 0.5, 1.0)
    prof = holder_profile(f, alphas)
    assert prof == tuple(holder_coefficient(f, a) for a in alphas)
    # distances <= 1/2 < 1 make the coefficient nondecreasing in alpha
    assert prof[0] <= prof[1] <= prof[2]


def test_holder_rejects_bad_alpha():
    f = GridFunction(COS)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(Exception):
            holder_coefficient(f, bad)


def test_log_transform_scales_exponent():
    v = np.exp(0.3 * COS)
    psi = GridDensity(v / v.mean())
    h = holder_coefficient(log_transform(psi), 1.0)
    assert h == pytest.approx(0.3 * 2 * math.pi, rel=2e-3)
    with pytest.raises(NonPositiveDensity):
        log_transform(GridFunction(np.zeros(8)))


def test_sampling_tracks_uniform_density():
    rng = np.random.Generator(np.random.Philox(key=101))
    pts = sample(uniform_density(M), rng, 100_000)
    assert 0.0 <= pts.min() and pts.max() < 1.0
    ks = stats.kstest(pts, "uniform")
    assert ks.statistic < 0.01


def test_sampling_concentrates_on_a_spike():
    v = np.zeros(M)
    v[M // 2] = float(M)
    spike = GridDensity(v)
    rng = np.random.Generator(np.random.Philox(key=102))
    pts = sample(spike, rng, 2000)
    assert np.max(np.abs(pts - 0.5)) <= 1.0 / M + 1e-12


def test_sampling_is_reproducible():
    psi = GridDensity(1.0 + 0.5 * COS)
    a = sample(psi, np.random.Generator(np.random.Philox(key=5)), 1000)
    b = sample(psi, np.random.Generator(np.random.Philox(key=5)), 1000)
    assert np.array_equal(a, b)


def reference_cdf(psi):
    """(cell masses, their normalized cumulative sums from 0 to 1, total)."""
    v = psi.values
    masses = (v + np.roll(v, -1)) / (2.0 * psi.resolution)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    cum /= total
    cum[-1] = 1.0
    return masses, cum, total


def searchsorted_sample(psi, rng, size):
    """Inverse-CDF sampling searched and computed in draw order."""
    M = psi.resolution
    masses, cum, total = reference_cdf(psi)
    u = rng.random(size)
    j = np.searchsorted(cum, u, side="right") - 1
    j = np.clip(j, 0, M - 1)
    cell = masses[j] / total
    frac = np.where(cell > 0, (u - cum[j]) / np.where(cell > 0, cell, 1.0), 0.0)
    x = (j + frac) / M
    return np.where(x >= 1.0, 0.0, x)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def guide_table_densities(m):
    """Densities at resolution m that the guide table must get right."""
    x = np.arange(m) / m
    cos = np.cos(2 * np.pi * x)
    spike = np.zeros(m)
    spike[m - 1] = 1.0                       # mass only in the wrapping cells
    first_half = x < 0.5
    return (1.0 + 0.5 * cos,
            np.maximum(cos, 0.0),            # no mass on half the circle
            spike,
            # the CDF crawls over the first half: a draw below 2/m starts
            # up to m/4 cells short of its own
            np.where(first_half, 2.0 / m, 1.0),
            np.where(first_half, 1e-12, 1.0))


@pytest.mark.parametrize("size", [0, 1, 7, 100_000])
def test_sample_equals_draw_order_search_bit_for_bit(size):
    for m in (8, M, 65536):
        for values in guide_table_densities(m):
            psi = GridDensity(values)
            got = sample(psi, np.random.Generator(np.random.Philox(key=17)), size)
            want = searchsorted_sample(psi, np.random.Generator(np.random.Philox(key=17)),
                                       size)
            assert type(got) is type(want) and got.shape == (size,)
            assert np.array_equal(_bits(got), _bits(want))


class FixedDraws:
    """A stand-in generator whose random(size) returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def test_sample_resolves_draws_on_cdf_values_like_the_search():
    # a draw equal to a CDF value, or to a guide-table key k/m, belongs to
    # the last cell starting at or below it; random draws almost never hit
    # one
    for m in (8, M, 65536):
        for values in guide_table_densities(m):
            psi = GridDensity(values)
            cum = reference_cdf(psi)[1]
            draws = np.concatenate([cum, np.nextafter(cum, 0.0), np.arange(m) / m])
            draws = draws[draws < 1.0]
            got = sample(psi, FixedDraws(draws), draws.size)
            want = searchsorted_sample(psi, FixedDraws(draws), draws.size)
            assert np.array_equal(_bits(got), _bits(want))


ROWS = cli.ROWS_PER_WRITE
CSV_SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-310,
                         1e16, 0.1, -1.0 / 3.0])
CSV_LAYOUTS = {   # the row formats the CLI writes, and each column's kind
    "invariant": ("%.17g,%.17g", "ff"),
    "decay": ("%d,%.17g,%.17g,%d", "iffb"),
    "coupling": ("%d,%d,%.17g,%.17g,%.17g,%.17g", "iiffff"),
}


@pytest.mark.parametrize("layout", sorted(CSV_LAYOUTS))
@pytest.mark.parametrize("rows", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 7])
def test_block_writer_matches_savetxt(tmp_path, layout, rows):
    row_format, kinds = CSV_LAYOUTS[layout]
    rng = np.random.Generator(np.random.Philox(key=rows))
    columns = []
    for kind in kinds:
        if kind == "i":
            columns.append(np.arange(rows))
        elif kind == "b":
            columns.append(rng.random(rows) < 0.5)
        else:
            v = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
            k = min(rows, CSV_SPECIALS.size)
            v[rng.choice(rows, k, replace=False)] = CSV_SPECIALS[:k]
            columns.append(v)
    data = np.column_stack(columns)
    header = ",".join(f"c{i}" for i in range(len(kinds)))
    cli._write_rows(tmp_path / "block.csv", header, row_format, data)
    np.savetxt(tmp_path / "savetxt.csv", data, fmt=row_format.split(","),
               delimiter=",", header=header, comments="")
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "savetxt.csv").read_bytes()
    assert written.count(b"\n") == rows + 1


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=100)
def test_holder_scaling_property(c):
    f = GridFunction(np.exp(np.cos(2 * np.pi * np.arange(256) / 256)))
    h = holder_coefficient(f, 0.5)
    hc = holder_coefficient(GridFunction(c * f.values), 0.5)
    assert hc == pytest.approx(abs(c) * h, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_l1_triangle_inequality(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    f, g, h = (GridFunction(rng.normal(size=64)) for _ in range(3))
    assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h) + 1e-12


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_integrate_is_linear(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    f = GridFunction(rng.normal(size=64))
    g = GridFunction(rng.normal(size=64))
    lhs = integrate(GridFunction(f.values + 3.0 * g.values))
    assert lhs == pytest.approx(integrate(f) + 3.0 * integrate(g), abs=1e-12)
