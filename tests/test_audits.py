import collections
import gc
import logging
import sys
import weakref

import numpy as np
import pytest

from expcircle import AuditResult, integrate, linear_map, perturbed_map, standard_maps
from expcircle import audits, density_grid, transfer_operator
from expcircle.audits import (
    audit_arc_expansion,
    audit_certificate,
    audit_constants_monotonic,
    audit_constants_reference,
    audit_correlation_decay,
    audit_distortion,
    audit_partition,
    audit_preimage_roundtrip,
    audit_quadrature,
    audit_reduction_chain,
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
    fs, gs = observable_family(512, 0.5)
    assert [name for name, _ in fs] == ["cos", "step", "ripple"]
    assert [name for name, _ in gs] == ["cos", "cusp"]


def test_map_free_audits_pass():
    for res in (
        audit_quadrature(),
        audit_sampling(),
        audit_constants_reference(),
        audit_constants_monotonic(),
    ):
        assert res.ok, f"{res.name}: {res.detail}"
        assert res.seconds >= 0.0


def test_geometric_audits_pass_quickly(bent):
    for res in (
        audit_certificate(bent),
        audit_arc_expansion(bent),
        audit_preimage_roundtrip(bent),
        audit_distortion(bent, pairs=100),
    ):
        assert res.ok, f"{res.name}: {res.detail}"


def test_partition_audit_reports_arc_mass_and_route_defects(doubling):
    res = audit_partition(doubling)
    assert res.ok
    assert "arc defect" in res.detail and "route mismatch" in res.detail


def test_run_all_roster_and_forwarding(monkeypatch):
    calls = []

    def recorder(attr):
        def record(*args, **kwargs):
            calls.append((attr, args, kwargs))
            return [AuditResult(attr, True)]
        return record

    attrs = [a for a in dir(audits) if a.startswith("audit_")]
    assert len(attrs) == 23
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
        ("audit_preimage_roundtrip", (m,), {}),
        ("audit_partition", (m,), {}),
        ("audit_backward_contraction", (m,), {}),
        ("audit_distortion", (m,), {}),
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
        ("audit_reduction_chain", (m,), horizon),
        ("audit_density_convergence", (m,), horizon),
        ("audit_quadrature", (), res),
        ("audit_sampling", (), res),
        ("audit_constants_reference", (), res),
        ("audit_constants_monotonic", (), {}),
    ]


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


def count_work(monkeypatch):
    """Counter of operator applications ("apply") and all-lag Hoelder
    scans ("scan"), with apply_function wrapped in every expcircle
    namespace that bound it."""
    counts = collections.Counter()
    apply_function = transfer_operator.apply_function
    gap_profile = density_grid._gap_profile

    def counted_apply(m, f):
        counts["apply"] += 1
        return apply_function(m, f)

    def counted_scan(f):
        counts["scan"] += 1
        return gap_profile(f)

    for name, mod in list(sys.modules.items()):
        if name.startswith("expcircle") and getattr(mod, "apply_function", None) is apply_function:
            monkeypatch.setattr(mod, "apply_function", counted_apply)
    monkeypatch.setattr(density_grid, "_gap_profile", counted_scan)
    return counts


@pytest.mark.parametrize("audit, applies, scans", [
    # one g phi chain and one side-density chain per (alpha, g), read by all
    # three f: 6 x (1 invariance check + 60 + 60)
    (audit_correlation_decay, 726, 4),
    # one walk to n = 30 per test function
    (audit_sup_c1_bounds, 90, 0),
    # one 60-step chain per (alpha, g); H(g) and H(psi_g) per alpha < 1
    (audit_reduction_chain, 360, 8),
    # pointwise log bounds read the scans the sweep has already made
    (audit_regularity_sweep, 90, 186),
])
def test_orbits_and_scans_are_walked_once(monkeypatch, audit, applies, scans):
    m = linear_map(2)
    audits.cached_invariant(m)
    counts = count_work(monkeypatch)
    out = audit(m)
    assert all(r.ok for r in (out if isinstance(out, list) else [out]))
    assert (counts["apply"], counts["scan"]) == (applies, scans)


def test_each_drift_warning_is_logged_once(bent, caplog):
    audits.cached_invariant(bent)
    with caplog.at_level(logging.WARNING, logger="expcircle"):
        assert audit_correlation_decay(bent).ok
    drifts = collections.Counter(r.getMessage() for r in caplog.records
                                 if "mass drift" in r.getMessage())
    assert len(drifts) == 3                 # one per cusp side chain
    assert set(drifts.values()) == {1}
