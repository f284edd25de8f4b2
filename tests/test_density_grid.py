import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import expcircle.density_grid as density_grid
from expcircle import (
    GridDensity,
    GridFunction,
    NonPositiveDensity,
    ResolutionMismatch,
    holder_coefficient,
    holder_profile,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    read_csv,
    read_density_csv,
    sample,
    sup_norm,
    uniform_density,
    write_csv,
)
from expcircle.audits import density_family, smooth_function

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
    with pytest.raises(ValueError):
        GridDensity(1.5 + COS, normalize=False)


def test_constant_density_normalizes_to_exactly_one():
    # the rounded node mean of these constant vectors is off by an ulp or two
    for c in (0.1, 0.3, 0.9, 3.3):
        assert np.all(GridDensity(np.full(M, c)).values == 1.0)


def test_evaluate_interpolates_linearly():
    f = GridFunction.from_function(lambda x: x * 0 + np.arange(8), resolution=8)
    assert f.evaluate(0.0) == 0.0
    assert f.evaluate(1.0 / 16) == pytest.approx(0.5, abs=1e-15)
    # periodic wrap between the last node and the first
    assert f.evaluate(1.0 - 1.0 / 16) == pytest.approx(3.5, abs=1e-12)


def test_arithmetic_and_resolution_guard():
    f = GridFunction(np.ones(16))
    g = GridFunction(np.full(16, 2.0))
    assert np.all((f + g).values == 3.0)
    assert np.all((2.0 * f - g).values == 0.0)
    with pytest.raises(ResolutionMismatch):
        f + GridFunction(np.ones(32))


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
        smooth_function(rng, res),
        GridFunction(rng.normal(size=res)),
        GridFunction(np.full(res, 2.5)),
    ]
    alphas = (0.3, 0.5, 1.0)
    ref = brute_force_holder(np.stack([f.values for f in inputs]), alphas)
    for f, row in zip(inputs, ref):
        assert holder_profile(f, alphas) == tuple(row.tolist())


def test_lipschitz_coefficient_needs_no_lag_scan(monkeypatch):
    scans = []
    real = density_grid._gap_profile
    monkeypatch.setattr(density_grid, "_gap_profile",
                        lambda f: scans.append(f) or real(f))
    res = 65536
    cos = GridFunction(np.cos(2 * np.pi * np.arange(res) / res))
    assert holder_coefficient(cos, 1.0) == lipschitz_estimate(cos)
    assert holder_profile(cos, (1.0, 1.0)) == (lipschitz_estimate(cos),) * 2
    assert not scans
    holder_profile(GridFunction(COS), (0.5, 1.0))
    assert len(scans) == 1


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


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=103))
    f = GridFunction(rng.normal(size=256))
    path = tmp_path / "f.csv"
    write_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,value"
    g = read_csv(path)
    assert np.array_equal(f.values, g.values)  # %.17g is lossless for float64

    psi = GridDensity(np.exp(0.3 * np.cos(2 * np.pi * np.arange(256) / 256)))
    write_csv(psi, path)
    back = read_density_csv(path)
    assert isinstance(back, GridDensity)
    assert np.max(np.abs(back.values - psi.values)) < 1e-15


ROWS = density_grid.ROWS_PER_WRITE
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
    density_grid._write_rows(tmp_path / "block.csv", header, row_format, data)
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
    lhs = integrate(f + 3.0 * g)
    assert lhs == pytest.approx(integrate(f) + 3.0 * integrate(g), abs=1e-12)
