import ast
import collections
import dataclasses
import gc
import inspect
import logging
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from expcircle import (AuditResult, custom_map, integrate, linear_map, perturbed_map,
                       standard_maps)
from expcircle import audits, inverse_branches, transfer_operator
from expcircle.audits import (
    audit_arc_expansion,
    audit_backward_contraction,
    audit_certificate,
    audit_class_entry,
    audit_constants_monotonic,
    audit_constants_reference,
    audit_correlation_decay,
    audit_density_convergence,
    audit_partition,
    audit_quadrature,
    audit_regularity_sweep,
    audit_sampling,
    audit_sup_c1_bounds,
    density_family,
    observable_family,
    smooth_density,
    smooth_function,
)


def test_audit_result_truthiness():
    assert AuditResult("x", True)
    assert not AuditResult("x", False, "broken")


def test_standard_maps_roster():
    labels = [repr(m) for m in standard_maps()]
    assert labels == [
        "linear{2}",
        "linear{3}",
        "perturbed{2,0.02}",
        "perturbed{2,0.05}",
        "perturbed{2,0.1}",
    ]


def test_generated_densities_are_seeded_and_normalized():
    a = smooth_density(5, resolution=512)
    b = smooth_density(5, resolution=512)
    c = smooth_density(6, resolution=512)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert abs(integrate(a) - 1.0) < 1e-14
    assert a.values.min() > 0.0
    f = smooth_function(5, resolution=512)
    assert not np.array_equal(f.values, smooth_function(7, resolution=512).values)


def test_families_have_expected_shape():
    dens = density_family(512)
    assert len(dens) == 3
    assert all(abs(integrate(d) - 1.0) < 1e-14 for d in dens)
    fs, gs = observable_family(512, (0.3, 0.5))
    assert [name for name, _ in fs] == ["cos", "step", "ripple"]
    assert [(name, alphas) for name, _, alphas in gs] == [
        ("cos", (0.3, 0.5)), ("cusp", (0.3,)), ("cusp", (0.5,))]
    assert gs[0][1] is fs[0][1]


def test_map_free_audits_pass():
    for res in (
        audit_quadrature(),
        audit_sampling(),
        audit_constants_reference(),
        audit_constants_monotonic(),
    ):
        assert res.ok, f"{res.name}: {res.detail}"
        assert res.seconds >= 0.0


@pytest.mark.parametrize("draws", [1, 2, 300, 8000, 100_000])
def test_ks_statistic_matches_scipy_stats(draws):
    rng = np.random.default_rng(draws)
    for u in (rng.random(draws), rng.beta(2.0, 2.0, draws)):
        want = stats.kstest(u, "uniform").statistic
        got = audits._ks_uniform(u)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_geometric_audits_pass_quickly(bent):
    for res in (
        audit_certificate(bent),
        *audit_arc_expansion(bent),
        *audit_backward_contraction(bent),
    ):
        assert res.ok, f"{res.name}: {res.detail}"


def _shifted_doubling(f0):
    """2x + f0 as a custom map."""
    return custom_map(lambda x: 2.0 * np.asarray(x, dtype=float) + f0,
                      lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      winding=2, lam=2.0, d2_sup=0.0)


def test_arc_expansion_solves_above_the_anchor():
    # F(0) = 0.5, so branch b's lifts of [0, 1) start at 1 + b, as in walk
    res = audit_arc_expansion(_shifted_doubling(0.5))
    assert [r.name for r in res] == ["arc-expansion", "preimage-roundtrip"]
    assert all(r.ok for r in res), res


def test_anchor_above_a_lift_just_past_an_integer():
    # F(0) = 5e-10 is past 0 by more than the stop rule's 1e-12, so the
    # anchor is 1: branch 0's target at x = 0 is 1, not 0, which lies below
    # F on the whole bracket and failed with "bracket does not enclose"
    m = _shifted_doubling(5e-10)
    assert inverse_branches._anchor_offset(m) == 1.0
    ends = list(inverse_branches.walk(m, [(0,), (1,)], 0.0))
    assert [float(end.u[0]) for end in ends] == pytest.approx([0.5, 1.0])
    phi, _ = transfer_operator.invariant_density(m, resolution=1024)
    assert np.abs(phi.values - 1.0).max() < 1e-12
    assert all(r.ok for r in audit_arc_expansion(m))


def test_partition_audit_reports_arc_mass_and_route_defects(doubling):
    res = audit_partition(doubling)
    assert res.ok
    assert "arc band excess" in res.detail and "route mismatch" in res.detail


@pytest.mark.parametrize("m", [linear_map(2), linear_map(3)], ids=repr)
def test_partition_fails_when_a_depth_one_preimage_moves(m, monkeypatch):
    # branch 0's depth-one preimages move by 1e-3 and keep their
    # derivative products, so only the arc band can catch it: the arcs'
    # lengths still sum to 1
    calls = []

    def moved(*args):
        calls.append(args)
        for end in inverse_branches.walk(*args):
            yield end._replace(u=end.u + 1e-3) if end.path == (0,) else end

    monkeypatch.setattr(audits, "walk", moved)
    res = audit_partition(m)
    assert not res.ok
    assert res.detail.startswith("worst arc band excess 1.0e-03, ")
    assert len(calls) == 1


def test_run_all_roster_and_forwarding(monkeypatch):
    calls = []

    def recorder(attr):
        def record(*args, **kwargs):
            calls.append((attr, args, kwargs))
            return [AuditResult(attr, True)]
        return record

    attrs = [a for a in dir(audits) if a.startswith("audit_")]
    assert len(attrs) == 20
    for attr in attrs:
        monkeypatch.setattr(audits, attr, recorder(attr))
    m = object()            # the recorders never look at the map
    audits.run_all(m, seed=7, trials=2000, resolution=512, n_max=40)
    res = {"resolution": 512}
    horizon = {"n_max": 40, "resolution": 512}
    assert calls == [
        ("audit_certificate", (m,), {}),
        ("audit_second_derivative", (m,), {}),
        ("audit_arc_expansion", (m,), {}),
        ("audit_partition", (m,), {}),
        ("audit_backward_contraction", (m,), {}),
        ("audit_operator_identities", (m,), res),
        ("audit_duality", (m,), res),
        ("audit_sup_c1_bounds", (m,), res),
        ("audit_regularity_sweep", (m,), res),
        ("audit_class_entry", (m,), res),
        ("audit_invariant_density", (m,), res),
        ("audit_cesaro", (m,), res),
        ("audit_coupling_deterministic", (m,), res),
        ("audit_coupling_monte_carlo", (m,),
         {"trials": 2000, "seed": 7, "resolution": 512}),
        ("audit_correlation_decay", (m,), horizon),
        ("audit_density_convergence", (m,), horizon),
        ("audit_quadrature", (), res),
        ("audit_sampling", (), res),
        ("audit_constants_reference", (), {}),
        ("audit_constants_monotonic", (), {}),
    ]


def test_audit_signature_says_what_run_all_forwards(monkeypatch):
    run_all_args = list(inspect.signature(audits.run_all).parameters)
    assert list(audits._FORWARDED) == run_all_args[1:]
    monkeypatch.setattr(audits, "_AUDITS", [])

    def audit_on_map(m, *, seed=1, n_max=2):
        pass

    def audit_free(*, resolution=8):
        pass

    def audit_knob(m, *, resolution=8, samples=10):
        pass

    audits._audit("on-map")(audit_on_map)
    audits._audit("free", "free-too")(audit_free)
    assert audits._AUDITS == [("audit_on_map", 1, ("seed", "n_max"), True),
                              ("audit_free", 2, ("resolution",), False)]
    with pytest.raises(TypeError, match=r"audit_knob takes \['samples'\]"):
        audits._audit("knob")(audit_knob)
    assert len(audits._AUDITS) == 2


def test_cached_invariant_is_freed_with_its_map():
    gc.collect()
    held = len(transfer_operator._OPERATORS)
    maps = [perturbed_map(2, 0.05) for _ in range(3)]
    for m in maps:
        phi, _ = audits.cached_invariant(m, 512)
        assert audits.cached_invariant(m, 512)[0] is phi
    alive = [weakref.ref(m) for m in maps]
    del m, maps
    gc.collect()
    assert all(ref() is None for ref in alive)
    assert len(transfer_operator._OPERATORS) == held


@pytest.mark.parametrize("audit, applies, scans", [
    # one g phi chain and one side-density chain per g (cos and three cusps),
    # read by every (alpha, f) it serves and by the reduction chain:
    # 4 x (1 invariance check + 60 + 60); H(g) and H(psi_g) once per g with
    # an alpha < 1
    (audit_correlation_decay, 484, 6),
    # one walk to n = 30 per test function
    (audit_sup_c1_bounds, 90, 0),
    # pointwise log bounds read the scans the sweep has already made, and
    # the iterates that the doubling map has made constant need none
    (audit_regularity_sweep, 90, 50),
    # N(B) + 12 steps per (alpha, cap) cell, none past the last one checked;
    # at alpha 0.5 only H(cos) scans: a closed-form bound decides all 75
    # class checks
    (audit_class_entry, 112, 1),
    # one 60-step chain and one profile per density, for all three alphas
    (audit_density_convergence, 180, 3),
])
def test_orbits_and_scans_are_walked_once(count_work, bent, audit, applies, scans):
    m = linear_map(2)
    audits.cached_invariant(m)
    counts = count_work()
    out = audit(m)
    assert all(r.ok for r in (out if isinstance(out, list) else [out]))
    assert (counts["apply"], counts["scan"]) == (applies, scans)
    if audit is audit_regularity_sweep:
        # on a perturbed map every iterate scans: 3 densities x 31 iterates,
        # plain and log.  Each scan starts from the gap envelope of the one
        # before it in its chain; scans from scratch visit 183888 lag rows
        counts = count_work()
        assert all(r.ok for r in audit(bent))
        assert (counts["apply"], counts["scan"], counts["rows"]) == (122, 186, 41840)


def test_each_drift_warning_is_logged_once(bent, caplog):
    audits.cached_invariant(bent)
    with caplog.at_level(logging.WARNING, logger="expcircle"):
        results = audit_correlation_decay(bent)
    assert [r.name for r in results] == ["correlation-decay", "reduction-chain"]
    assert all(r.ok for r in results), results
    drifts = collections.Counter(r.getMessage() for r in caplog.records
                                 if "mass drift" in r.getMessage())
    assert len(drifts) == 3                 # one per cusp side chain
    assert set(drifts.values()) == {1}


def _reference_contraction(m, seed=9, pairs=1000, max_depth=8, path_cap=600):
    """The backward-contraction body as it was before it shared its walk."""
    rng = audits._rng(seed)
    xs = rng.random(pairs)
    ys = rng.random(pairs)
    d = np.atleast_1d(audits.circle_distance(xs, ys))
    worst = -np.inf
    paths = audits._sampled_paths(m.winding, max_depth, rng, cap=path_cap)
    for end in audits.walk(m, paths, xs, ys):
        rhs = m.lam ** (-len(end.path)) * d
        worst = max(worst, float((end.gap - rhs).max()))
    return audits._gate(-worst, f"worst lhs - rhs = {worst:.3e} over "
                        f"{len(paths) * pairs} pair-path cells",
                        slack=2.0 * audits._step_error(m) / (m.lam - 1.0))


def _reference_distortion(m, seed=9, pairs=1000, max_depth=8, path_cap=600):
    """The distortion body as it was before it shared its walk, on the
    contraction's seed."""
    rng = audits._rng(seed)
    xs = rng.random(pairs)
    ys = rng.random(pairs)
    omega = audits.compute_ledger(m, 1.0).omega
    d = audits.circle_distance(xs, ys)
    lo = np.exp(-omega * d) - audits.DISTORTION_SLACK
    hi = np.exp(omega * d) + audits.DISTORTION_SLACK
    worst = -np.inf
    paths = audits._sampled_paths(m.winding, max_depth, rng, cap=path_cap)
    for end in audits.walk(m, paths, xs, ys):
        ratio = end.du / end.dv
        worst = max(worst, float((ratio - hi).max()), float((lo - ratio).max()))
    return audits._gate(-worst, f"worst band excess {worst:.3e} over "
                        f"{len(paths) * pairs} pair-path cells")


@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_pair_audits_share_one_walk(m, monkeypatch):
    solves = []
    solve_lift = inverse_branches._solve_lift

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_lift(*args, **kwargs)

    monkeypatch.setattr(inverse_branches, "_solve_lift", counted)
    merged = audit_backward_contraction(m)
    merged_solves = len(solves)
    want = [_reference_contraction(m), _reference_distortion(m)]
    assert [r.name for r in merged] == ["backward-contraction", "distortion"]
    assert [(r.ok, r.detail, r.margin) for r in merged] == [tuple(v) for v in want]
    assert all(r.ok for r in merged)
    assert merged[1].seconds == 0.0
    # one root solve per inner node of the path tree, where two walks made two
    assert len(solves) == 3 * merged_solves
    if repr(m) == "linear{2}":
        assert merged_solves == 255


def _per_call_polynomial(rng, resolution, amp):
    """One trigonometric polynomial as each audit input was once made: its
    own cos and sin tables, after drawing a_k then b_k."""
    k = np.arange(1, amp.size + 1)
    a = rng.normal(size=amp.size) * amp
    b = rng.normal(size=amp.size) * amp
    x = np.arange(resolution) / resolution
    phase = 2.0 * np.pi * np.outer(k, x)
    return a @ np.cos(phase) + b @ np.sin(phase)


@pytest.mark.parametrize("resolution", [512, 4096])
@pytest.mark.parametrize("amp", [
    0.5 / (1.0 + np.arange(1, 9)) ** 2,     # smooth_density's log
    1.0 / (1.0 + np.arange(1, 7)),          # smooth_function
], ids=["density", "function"])
def test_trig_polynomials_keep_the_per_call_bits_and_draws(resolution, amp):
    mine, theirs = audits._rng(11), audits._rng(11)
    polys = audits._trig_polynomials(mine, resolution, amp)
    for _ in range(20):
        assert np.array_equal(next(polys), _per_call_polynomial(theirs, resolution, amp))
    assert mine.normal() == theirs.normal()


def test_audit_inputs_build_one_table_each(monkeypatch):
    draws = []                  # per table build, the inputs drawn from it
    trig_polynomials = audits._trig_polynomials

    def counted(*args):
        build = len(draws)
        draws.append(0)
        for poly in trig_polynomials(*args):
            draws[build] += 1
            yield poly

    monkeypatch.setattr(audits, "_trig_polynomials", counted)
    m = linear_map(2)
    results = [*audits.audit_operator_identities(m, resolution=1024),
               audits.audit_duality(m, resolution=1024),
               audit_quadrature(resolution=1024)]
    assert all(r.ok for r in results)
    assert draws == [100, 40, 3]


@pytest.mark.parametrize("w", [2, 3, 235, 10**6])
def test_sampled_paths_never_hand_the_tree_size_to_numpy(w):
    cap = 40
    paths = audits._sampled_paths(w, 8, audits._rng(6), cap=cap)
    by_depth = collections.defaultdict(set)
    for path in paths:
        assert all(0 <= b < w for b in path)
        by_depth[len(path)].add(tuple(path))
    assert sorted(by_depth) == list(range(1, 9))
    for depth, kept in by_depth.items():
        assert len(kept) == min(w ** depth, cap)
    assert len(paths) == sum(min(w ** d, cap) for d in range(1, 9))
    # the default cap, on a tree of at least 600 paths below the root
    paths = audits._sampled_paths(w, 8, audits._rng(9))
    assert len(set(paths)) == len(paths) == sum(min(w ** d, 600) for d in range(1, 9))


def test_preimage_roundtrip_runs_at_degree_235():
    # the walk samples its depth-one branches here (152 of 235), so arcs
    # are taken within each branch: across them they would span the
    # missing ones
    res = audit_arc_expansion(perturbed_map(235, 0.3))
    assert all(isinstance(r, AuditResult) for r in res)
    assert [r.name for r in res] == ["arc-expansion", "preimage-roundtrip"]
    assert all(r.ok for r in res), res
    assert res[0].detail.endswith(" over 9576 arcs")
    assert res[1].seconds == 0.0


@pytest.mark.parametrize("w, eps", [(7, 0.5), (16, 0.3), (16, 0.45), (50, 0.3)])
def test_preimage_roundtrip_passes_at_high_degree(w, eps):
    # checked after n forward steps, a step's error grew past any fixed
    # slack here: 2.6e-8 on perturbed{7,0.5}, 4.2e-5 on {50,0.3}
    res = audit_arc_expansion(perturbed_map(w, eps))
    assert all(r.ok for r in res), res


@pytest.mark.parametrize("path", [(0,), (1, 0, 1)], ids=["depth-1", "depth-3"])
@pytest.mark.parametrize("m", [linear_map(2), perturbed_map(2, 0.05)], ids=repr)
def test_preimage_roundtrip_fails_when_a_root_moves_after_newton(m, path, monkeypatch):
    # a 1e-11 move is 10 step errors: T of the moved node misses its parent
    # by at least lambda 1e-11 - r, and its children miss it by 1e-11 - r.
    # Checked after n forward steps against 1e-9 instead, T^n carries the
    # move to at most 1e-11 d1_sup^3 (1.2e-10 here), which passes
    def moved(*args):
        for end in inverse_branches.walk(*args):
            yield end._replace(u=end.u + 1e-11) if end.path == path else end

    monkeypatch.setattr(audits, "walk", moved)
    arcs, res = audit_arc_expansion(m)
    assert not res.ok
    assert res.margin < -(1e-11 - 3.0 * audits._step_error(m))
    # the arc check holds at whatever points it is given: a moved
    # depth-one node moves every end of its arcs alike
    assert arcs.ok, arcs.detail


@pytest.mark.parametrize("m, overstated", [(linear_map(2), 1e-12),
                                           (perturbed_map(2, 0.05), 1e-4)], ids=repr)
def test_arc_expansion_fails_on_an_overstated_lambda(m, overstated):
    # lambda |J| <= |T(J)| holds exactly at the computed ends, so the slack
    # covers rounding only, and an overstated lambda fails once its excess
    # on the longest arc passes it: from a relative 1e-13 on linear{2} and
    # 1e-5 on perturbed{2,0.05}.  The walk does not read lambda.
    arcs, roundtrip = audit_arc_expansion(dataclasses.replace(m, lam=m.lam * (1.0 + overstated)))
    assert not arcs.ok
    assert arcs.margin < 0.0
    assert roundtrip.ok, roundtrip.detail


def test_forward_return_distance_follows_the_conditioning_model(bent):
    # The check preimage-roundtrip no longer makes: T^n of a depth-n end
    # against x.  Each pullback step leaves an error of at most r (plus 2
    # ulps of 1 for a forward wrap), and each forward step multiplies what
    # it carries by at most d1_sup, so the distance is within that times
    # 1 + d1_sup + ... + d1_sup^(n-1).  By depth 6 it is far past the
    # one-step slack, so no slack fit for one step fits the n-fold check.
    rng = audits._rng(6)
    xs = rng.random(64)
    paths = audits._sampled_paths(bent.winding, 6, rng, cap=40)
    step = audits._step_error(bent) + 2.0 * np.spacing(1.0)
    worst = collections.defaultdict(float)
    for end in inverse_branches.walk(bent, paths, xs):
        y = end.u
        for _ in end.path:
            y = audits.evaluate(bent, y)
        n = len(end.path)
        worst[n] = max(worst[n], float(audits.circle_distance(y, xs).max()))
    d = bent.d1_sup
    assert sorted(worst) == [1, 2, 3, 4, 5, 6]
    for n, dist in worst.items():
        assert dist <= step * (d ** n - 1.0) / (d - 1.0), n
    assert worst[6] > 10.0 * step


def test_only_walk_and_the_operator_build_solve_roots():
    # every other caller reads walk's tree, so a per-audit root solve
    # cannot come back: (module, innermost function) of each reference to
    # _solve_lift, None for module level (an import)
    users = set()

    def visit(node, module, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [getattr(node, "id", None), getattr(node, "attr", None)])
        if "_solve_lift" in names:
            users.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in Path(audits.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert users == {("inverse_branches", "walk"),
                     ("transfer_operator", None), ("transfer_operator", "_build_operator")}
