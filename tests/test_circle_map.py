import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcircle import (
    CertificationError,
    DegreeMismatch,
    NotExpanding,
    certify,
    circle_distance,
    custom_map,
    evaluate,
    linear_map,
    perturbed_map,
    signed_gap,
    wrap,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_wrap_basics():
    assert wrap(0.0) == 0.0
    assert wrap(1.25) == pytest.approx(0.25, abs=1e-15)
    assert wrap(-0.25) == pytest.approx(0.75, abs=1e-15)
    assert wrap(1.0) == 0.0
    out = wrap(np.array([-0.5, 0.5, 2.5]))
    assert np.allclose(out, [0.5, 0.5, 0.5])


def test_wrap_never_returns_one():
    # x % 1.0 rounds up for tiny negatives; the wrap must not emit 1.0
    assert wrap(-1e-18) == 0.0


@given(finite)
@settings(max_examples=300)
def test_wrap_range_and_idempotence(x):
    r = wrap(x)
    assert 0.0 <= r < 1.0
    assert wrap(r) == r


def mod_wrap(x):
    """The textbook reduction: np.mod, with its round-up to 1.0 clamped."""
    r = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(r >= 1.0, 0.0, r)


WRAP_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-20, -1e-20,
              -1e-18, 1.0, -1.0, 3.0, -7.0, 1e6, -1e6, 1e6 + 0.25, -1e6 - 0.25,
              0.5, -0.5, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53)]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
@settings(max_examples=300)
def test_wrap_matches_mod_bit_for_bit(xs):
    x = np.array(xs + WRAP_EDGES)
    assert np.array_equal(wrap(x).view(np.int64), mod_wrap(x).view(np.int64))


def test_wrap_scalars_are_floats_and_inputs_stay_put():
    for x in WRAP_EDGES:
        r = wrap(x)
        assert type(r) is float
        assert np.float64(r).view(np.int64) == mod_wrap(x).view(np.int64)
    assert type(wrap(np.float64(2.5))) is float
    m = perturbed_map(2, 0.1)
    x = np.array(WRAP_EDGES)
    before = x.copy()
    wrap(x)
    evaluate(m, x)
    assert np.array_equal(x.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("w, eps", [(2, 0.1), (3, 0.05)])
def test_perturbed_lift_matches_textbook_bits(w, eps):
    m = perturbed_map(w, eps)
    x = np.concatenate([np.random.default_rng(5).uniform(-3.0, 3.0, 10_000),
                        WRAP_EDGES])
    ref = w * x + eps * np.sin(2 * np.pi * x)
    assert np.array_equal(m.lift(x).view(np.int64), ref.view(np.int64))
    for v in WRAP_EDGES[:8] + [0.25, -1.7, np.float64(0.9)]:
        got = m.lift(v)
        assert np.ndim(got) == 0
        want = w * np.asarray(v) + eps * np.sin(2 * np.pi * np.asarray(v))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


@given(finite, finite)
@settings(max_examples=300)
def test_distance_symmetry_and_range(x, y):
    d = circle_distance(wrap(x), wrap(y))
    assert 0.0 <= d <= 0.5
    assert d == circle_distance(wrap(y), wrap(x))


@given(finite, finite, st.integers(min_value=-3, max_value=3))
@settings(max_examples=300)
def test_distance_shift_invariance(x, y, k):
    a, b = wrap(x), wrap(y)
    d0 = circle_distance(a, b)
    d1 = circle_distance(wrap(a + k), wrap(b + k))
    assert d1 == pytest.approx(d0, abs=1e-12)


@given(finite, finite, finite)
@settings(max_examples=300)
def test_distance_triangle(x, y, z):
    a, b, c = wrap(x), wrap(y), wrap(z)
    assert circle_distance(a, c) <= (
        circle_distance(a, b) + circle_distance(b, c) + 1e-12
    )


@given(finite, finite)
@settings(max_examples=300)
def test_signed_gap_consistent_with_distance(x, y):
    a, b = wrap(x), wrap(y)
    g = signed_gap(a, b)
    assert -0.5 <= g < 0.5
    assert abs(g) == pytest.approx(circle_distance(a, b), abs=1e-12)
    assert wrap(a + g) == pytest.approx(b, abs=1e-12) or circle_distance(
        wrap(a + g), b
    ) < 1e-12


def test_linear_map_constants():
    m = linear_map(2)
    assert (m.lam, m.winding, m.d2_sup) == (2.0, 2, 0.0)
    assert repr(m) == "linear{2}"
    assert evaluate(m, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert evaluate(m, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert m.dlift(0.123) == 2.0
    assert m.d2lift(0.123) == 0.0


def test_linear_map_rejects_degree_below_two():
    with pytest.raises(DegreeMismatch):
        linear_map(1)


def test_perturbed_map_certificate():
    m = perturbed_map(2, 0.05)
    cert = certify(m)
    assert cert["lambda"] == pytest.approx(2.0 - 0.1 * math.pi, abs=1e-15)
    assert cert["lambda"] == pytest.approx(1.6858407346410207, abs=1e-15)
    assert cert["winding"] == 2
    assert cert["d2_sup"] == pytest.approx(1.9739208802178716, abs=1e-15)
    assert m.d1_sup == pytest.approx(2.0 + 0.1 * math.pi, abs=1e-15)


def test_perturbed_map_values():
    m = perturbed_map(2, 0.05)
    # F(x) = 2x + eps sin(2 pi x): the quarter point evaluates in closed form
    assert evaluate(m, 0.25) == pytest.approx(0.55, abs=1e-15)
    assert evaluate(m, 0.0) == 0.0
    assert m.dlift(0.0) == pytest.approx(2.0 + 0.1 * math.pi, abs=1e-15)
    # F'' = -4 pi^2 eps sin(2 pi x) is extremal at the quarter point
    assert m.d2lift(0.25) == pytest.approx(-m.d2_sup, abs=1e-12)
    assert abs(m.d2lift(0.5)) < 1e-12
    assert m.d2lift(0.125) == pytest.approx(
        -0.05 * 4 * math.pi**2 * math.sin(math.pi / 4), abs=1e-12
    )


def test_perturbed_map_rejects_flat_spots():
    with pytest.raises(NotExpanding):
        perturbed_map(2, 0.2)
    with pytest.raises(NotExpanding):
        perturbed_map(1, 0.01)


@given(st.floats(min_value=0, max_value=1, exclude_max=True),
       st.floats(min_value=0, max_value=1, exclude_max=True))
@settings(max_examples=200)
def test_doubling_expands_arcs_exactly(x, y):
    m = linear_map(2)
    d = circle_distance(x, y)
    if d < 0.24:  # stay inside one monotone piece after doubling
        img = circle_distance(evaluate(m, x), evaluate(m, y))
        assert img == pytest.approx(2.0 * d, abs=1e-12)


def test_custom_map_accepts_honest_certificate():
    w, eps = 3, 0.02
    m = custom_map(
        lambda x: w * x + eps * np.sin(2 * np.pi * x),
        lambda x: w + 2 * np.pi * eps * np.cos(2 * np.pi * x),
        lambda x: -((2 * np.pi) ** 2) * eps * np.sin(2 * np.pi * x),
        winding=w,
        lam=w - 2 * np.pi * eps,
        d2_sup=(2 * np.pi) ** 2 * eps,
    )
    assert m.winding == 3
    assert evaluate(m, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_custom_map_rejects_overstated_expansion():
    w, eps = 3, 0.02
    with pytest.raises(NotExpanding):
        custom_map(
            lambda x: w * x + eps * np.sin(2 * np.pi * x),
            lambda x: w + 2 * np.pi * eps * np.cos(2 * np.pi * x),
            lambda x: -((2 * np.pi) ** 2) * eps * np.sin(2 * np.pi * x),
            winding=w,
            lam=float(w),  # true minimum is w - 2 pi eps
            d2_sup=(2 * np.pi) ** 2 * eps,
        )


def test_custom_map_rejects_wrong_winding():
    with pytest.raises(DegreeMismatch):
        custom_map(
            lambda x: 3.0 * x,
            lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            winding=2,
            lam=3.0,
            d2_sup=0.0,
        )


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["lam", "d1_sup", "d2_sup"])
def test_custom_map_refuses_non_finite_constants(name, value):
    # every comparison with NaN is False: unrefused, a NaN constant would
    # pass the sampled audit and reach the ledger
    honest = {"lam": 2.0, "d1_sup": 2.0, "d2_sup": 0.0}
    with pytest.raises(CertificationError, match=f"^{name} must be finite"):
        custom_map(
            lambda x: 2.0 * x,
            lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            winding=2,
            **{**honest, name: value},
        )


def test_perturbed_map_refuses_nan_eps():
    with pytest.raises(CertificationError, match="^lam must be finite"):
        perturbed_map(2, math.nan)
