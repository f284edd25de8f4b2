from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcircle import (
    ArcViolation,
    circle_distance,
    evaluate,
    inverse_weight_sum,
    linear_map,
    preimages,
)
from expcircle import inverse_branches as ib
from expcircle.audits import _sampled_paths, standard_maps
from expcircle.circle_map import signed_gap, wrap

unit = st.floats(min_value=0, max_value=1, exclude_max=True)


def forward(m, y, n):
    for _ in range(n):
        y = evaluate(m, y)
    return y


def pullback(m, x, path):
    """The depth-n preimage of x along ``path``, as walk's end gives it."""
    return next(ib.walk(m, [path], x)).u


def all_paths(w, depth):
    """Every path of the given depth, in lexicographic order."""
    return list(product(range(w), repeat=depth))


def test_walk_refuses_bad_paths(bent):
    bad = [(), (-1,), (0, -2),                          # empty, negative
           (0.0,), (1, 0.5), ("0",), (np.float64(1.0),),  # non-integer
           (2,), (0, 7),                                # entry >= winding
           (0,) * (ib.MAX_DEPTH + 1)]                   # deeper than MAX_DEPTH
    for path in bad:
        with pytest.raises(ValueError):
            next(ib.walk(bent, [path], 0.3))
        with pytest.raises(ValueError):
            next(ib.walk(bent, [(0,), path], 0.3, 0.4))


def test_walk_takes_integer_entries_of_any_type(bent):
    got = [e.path for e in ib.walk(bent, [np.array([1, 0]), (np.int64(0), True)], 0.3)]
    assert got == [(0, 1), (1, 0)]
    assert all(type(b) is int for p in got for b in p)


def test_doubling_preimages_of_half(doubling):
    got = preimages(doubling, 0.5)
    assert [round(y, 15) for _, y in got] == [0.25, 0.75]
    assert [path for path, _ in got] == [(0,), (1,)]


def test_preimages_map_forward(doubling, tripling, bent):
    for m in (doubling, tripling, bent):
        for x in (0.0, 0.1, 0.5, 0.9321):
            ys = preimages(m, x)
            assert len(ys) == m.winding
            for _, y in ys:
                assert circle_distance(evaluate(m, y), x) < 1e-12


def test_preimages_of_a_large_winding_map():
    # |t| >= 8192: t's float spacing exceeds RESIDUAL_TOL, so the stop rule
    # reads it in spacings of t
    m = linear_map(20000)
    x = 0.123456789
    got = preimages(m, x)
    assert [path for path, _ in got] == [(b,) for b in range(m.winding)]
    ys = np.array([y for _, y in got])
    assert np.max(circle_distance(evaluate(m, ys), x)) < 1e-10


def test_stop_rule_is_the_fixed_tolerance_below_4096():
    # every target of the standard maps, and of every GOLDEN run, is below
    # 4096, so their roots keep the bits of the fixed 1e-12 rule
    below = ib.RESIDUAL_ULPS * np.spacing(np.nextafter(4096.0, 0.0))
    assert below <= ib.RESIDUAL_TOL < ib.RESIDUAL_ULPS * np.spacing(4096.0)


def test_perturbed_preimage_matches_closed_form(bent):
    # T(1/4) = 0.55 exactly, so 1/4 must appear among the preimages of 0.55
    ys = [y for _, y in preimages(bent, 0.55)]
    assert min(abs(y - 0.25) for y in ys) < 1e-12


def test_pullback_branch_convention(doubling):
    # path[0] acts on the point itself: 0.5 -> (0.5+1)/2 -> 0.75/2
    assert pullback(doubling, 0.5, (1, 0))[0] == pytest.approx(
        0.375, abs=1e-15
    )
    assert pullback(doubling, 0.5, (0, 1))[0] == pytest.approx(
        0.625, abs=1e-15
    )


def test_pullback_roundtrip(bent):
    xs = np.linspace(0, 0.99, 7)
    back = forward(bent, pullback(bent, xs, (1, 0, 1, 1)), 4)
    assert np.max(circle_distance(back, xs)) < 1e-10


def test_deep_preimages_are_distinct_and_complete(bent):
    for depth in (1, 2, 4):
        ends = list(ib.walk(bent, all_paths(2, depth), 0.3))
        assert len(ends) == 2**depth
        assert [e.path for e in ends] == all_paths(2, depth)
        ys = np.array([e.u[0] for e in ends])
        assert len(set(np.round(ys, 10))) == 2**depth
        back = forward(bent, ys, depth)
        assert np.max(circle_distance(back, 0.3)) < 1e-10


def test_inverse_weight_sum_linear_is_pointwise_one(doubling, tripling):
    xs = np.linspace(0, 0.999, 41)
    for m in (doubling, tripling):
        for depth in (1, 2, 5):
            assert np.max(np.abs(inverse_weight_sum(m, xs, depth) - 1.0)) < 1e-12


def test_inverse_weight_sum_perturbed_has_unit_mean(bent):
    xs = np.arange(512) / 512
    w = inverse_weight_sum(bent, xs, 3)
    assert abs(w.mean() - 1.0) < 1e-10
    # curvature makes it genuinely non-constant
    assert w.max() - w.min() > 1e-3


@given(unit, st.integers(min_value=1, max_value=8), st.integers(min_value=0))
@settings(max_examples=150)
def test_doubling_pullback_is_exact_halving(x, depth, raw_path):
    m_path = tuple((raw_path >> k) & 1 for k in range(depth))
    m = linear_map(2)
    y = pullback(m, x, m_path)
    assert circle_distance(forward(m, y, depth), x) < 1e-12


def test_branch_contraction_bound(bent):
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.random(200)
    y = rng.random(200)
    rhs = bent.lam ** -3 * circle_distance(x, y)
    ends = list(ib.walk(bent, all_paths(2, 3), x, y))
    assert len(ends) == 8
    for end in ends:
        assert np.all(end.gap <= rhs + 1e-10)


def test_distortion_ratio_within_exponential_band(bent):
    omega = bent.d2_sup / (bent.lam * (bent.lam - 1.0))
    rng = np.random.Generator(np.random.Philox(key=8))
    x = rng.random(200)
    y = rng.random(200)
    for depth in (1, 3, 5):
        for end in ib.walk(bent, all_paths(2, depth)[:: max(1, 2**depth // 8)], x, y):
            r = end.du / end.dv
            d = circle_distance(x, y)
            assert np.all(r <= np.exp(omega * d) + 1e-9)
            assert np.all(r >= np.exp(-omega * d) - 1e-9)


def test_distortion_ratio_is_one_for_linear(doubling):
    x = np.linspace(0, 0.9, 10)
    y = np.linspace(0.05, 0.95, 10)
    end = next(ib.walk(doubling, [(1, 0)], x, y))
    assert np.allclose(end.du / end.dv, 1.0, atol=1e-15)


def test_depth_validation(bent):
    with pytest.raises(ValueError):
        pullback(bent, 0.5, (0,) * 13)
    with pytest.raises(ValueError):
        pullback(bent, 0.5, (5,))


# Reference: the per-step loops that walked every path from scratch.  The
# walk must reproduce them bit for bit, since each of its solves receives
# the same point array.  Given a dict ``memo``, kept for one map and one
# start, a reference solves each path prefix once: a step reads only the
# point before it, so the bits are those of the walk from scratch.


def _ref_pull_step(m, x, branch):
    x = np.asarray(wrap(x))
    y = ib._solve_lift(m, ib._anchor_offset(m) + branch + x)
    return wrap(y)


def _ref_orbit(m, x, path, memo=None):
    memo = {} if memo is None else memo
    y = np.asarray(wrap(x))
    orbit = []
    for k, b in enumerate(path, 1):
        if path[:k] not in memo:
            memo[path[:k]] = _ref_pull_step(m, y, b)
        y = memo[path[:k]]
        orbit.append(y)
    return np.stack(orbit)


def _ref_pair_orbits(m, x, y, path, memo=None):
    memo = {} if memo is None else memo
    u = np.atleast_1d(np.asarray(wrap(x), dtype=float))
    gap = np.atleast_1d(np.asarray(signed_gap(x, y), dtype=float))
    m0 = ib._anchor_offset(m)
    us, vs, gaps = [], [], []
    for k, b in enumerate(path, 1):
        if path[:k] not in memo:
            tu = m0 + b + u
            pu = ib._solve_lift(m, tu)
            pv = ib._solve_lift(m, tu + gap, lo=-1.0, hi=3.0)
            memo[path[:k]] = wrap(pu), wrap(pv), pv - pu
        u, v, gap = memo[path[:k]]
        us.append(u)
        vs.append(v)
        gaps.append(np.abs(gap))
    return np.stack(us), np.stack(vs), np.stack(gaps)


def _walk_paths(m):
    """Every path to depth 8 for w = 2; for w = 3 a seeded sample of them
    and all their prefixes.  The set is closed under prefixes, so every
    point of a path's orbit is the end of a path of its own."""
    if m.winding == 2:
        return [p for depth in range(1, 9) for p in all_paths(2, depth)]
    rng = np.random.Generator(np.random.Philox(key=3))
    sample = _sampled_paths(m.winding, 8, rng, cap=24)
    prefixes = {tuple(map(int, p[:k])) for p in sample for k in range(1, len(p) + 1)}
    return sorted(prefixes)


@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_walk_matches_per_step_reference(m):
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.random(6)
    y = np.concatenate([rng.random(5), [x[0]]])   # one pair at distance 0
    paths = _walk_paths(m)
    single = list(ib.walk(m, paths, x))
    pairs = list(ib.walk(m, paths, x, y))
    assert [e.path for e in single] == sorted(paths)
    memo_x, memo_xy, memo_03 = {}, {}, {}
    # each orbit point is compared as the end of its own prefix path
    for e, e2 in zip(single, pairs, strict=True):
        assert e.path == e2.path
        assert e.v is None and e.dv is None and e.gap is None
        ref = _ref_orbit(m, x, e.path, memo_x)
        assert np.array_equal(e.u, ref[-1])
        assert np.array_equal(e.du, np.prod(m.dlift(ref), axis=0))
        ref_us, ref_vs, ref_gaps = _ref_pair_orbits(m, x, y, e.path, memo_xy)
        assert np.array_equal(e2.u, ref_us[-1]) and np.array_equal(e2.v, ref_vs[-1])
        assert np.array_equal(e2.gap, ref_gaps[-1])
        assert np.array_equal(e2.du, np.prod(m.dlift(ref_us), axis=0))
        assert np.array_equal(e2.dv, np.prod(m.dlift(ref_vs), axis=0))
    depth = 8 if m.winding == 2 else 4
    ref_sum = np.zeros_like(x)
    for path in all_paths(m.winding, depth):
        ref_sum += 1.0 / np.prod(m.dlift(_ref_orbit(m, x, path, memo_x)), axis=0)
    assert np.array_equal(inverse_weight_sum(m, x, depth), ref_sum)
    ref_deep = [_ref_orbit(m, 0.3, path, memo_03)[-1, 0]
                for path in all_paths(m.winding, depth)]
    assert [e.u[0] for e in ib.walk(m, all_paths(m.winding, depth), 0.3)] == ref_deep


def test_walk_solves_each_prefix_once(bent, monkeypatch):
    calls, points = [], []
    solve = ib._solve_lift

    def counted(m, target, *args, **kwargs):
        calls.append(1)
        points.append(np.size(target))
        return solve(m, target, *args, **kwargs)

    monkeypatch.setattr(ib, "_solve_lift", counted)
    paths = [p for depth in range(1, 9) for p in all_paths(2, depth)]
    x, y = np.array([0.1, 0.7]), np.array([0.2, 0.5])
    n = x.size
    assert len(paths) == 510
    internal = 255                              # the tree's nodes above depth 8

    def solves(run):
        calls.clear()
        points.clear()
        run()
        return sum(points), len(calls)

    # every prefix is solved once: one point per node and pair member, and
    # one call per internal node for all its children
    assert solves(lambda: list(ib.walk(bent, paths, x))) == (510 * n, internal)
    assert solves(lambda: list(ib.walk(bent, paths, x, y))) == (1020 * n, internal)
    # in any order: the tree walk yields them in lexicographic order
    assert solves(lambda: list(ib.walk(bent, paths[::-1], x, y))) == (1020 * n, internal)
    assert solves(lambda: list(ib.walk(bent, all_paths(2, 8), 0.3))) == (510, internal)
    assert solves(lambda: inverse_weight_sum(bent, x, 8)) == (510 * n, internal)
    # a lone depth-8 path: one call per step
    assert solves(lambda: list(ib.walk(bent, paths[-1:], x, y))) == (16 * n, 8)
    # one path from scratch per call, as the per-step reference does
    assert solves(lambda: [_ref_orbit(bent, x, b) for b in paths])[0] == 3586 * n
    assert solves(lambda: [_ref_pair_orbits(bent, x, y, b) for b in paths])[0] == 7172 * n


def test_walk_validates_before_solving(bent):
    # the bad second path is refused before the first one is yielded
    with pytest.raises(ValueError):
        next(ib.walk(bent, [(0,), (2,)], 0.1, 0.9))
    with pytest.raises(ArcViolation):
        next(ib.walk(bent, [(0,)], 0.1, np.nan))
