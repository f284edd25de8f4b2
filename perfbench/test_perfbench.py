"""Self-tests of the benchmark's own logic (not part of the package tests):

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from spans import Tracer, layer_metrics, self_times
from workloads import VERIFY_AUDITS, check_coupling, check_decay, \
    check_invariant, check_verify

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=None, thread=1, work=0, key=None):
    return [name, start, end, parent, thread, work, key]


def test_self_time_nested_single_thread():
    root = span("cli.main", 0.0, 10.0)
    a = span("transfer_operator.apply", 1.0, 4.0, root)
    b = span("correlation_suite.decay_report", 5.0, 9.0, root)
    c = span("density_grid.holder_profile", 6.0, 7.0, b)
    own = self_times([root, a, b, c])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_pool_children_are_merged():
    # run_all on thread 1 fans out to two workers whose audits overlap.
    run_all = span("audits.run_all", 0.0, 10.0, thread=1)
    x = span("audits.audit_distortion", 1.0, 6.0, run_all, thread=2)
    y = span("audits.audit_sampling", 2.0, 8.0, run_all, thread=3)
    z = span("audits.audit_cesaro", 8.5, 9.0, run_all, thread=2)
    inner = span("inverse_branches.pullback_orbit", 2.0, 5.0, x, thread=2)
    own = self_times([run_all, x, y, z, inner])
    # children cover [1, 8] and [8.5, 9]: 7.5 of the 10 seconds
    assert own[id(run_all)] == pytest.approx(2.5)
    assert own[id(x)] == pytest.approx(2.0)
    assert own[id(y)] == pytest.approx(6.0)
    assert own[id(z)] == pytest.approx(0.5)
    assert own[id(inner)] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent():
    parent = span("audits.run_all", 0.0, 4.0, thread=1)
    late = span("audits.audit_sampling", 3.0, 6.0, parent, thread=2)
    assert self_times([parent, late])[id(parent)] == pytest.approx(3.0)


@pytest.fixture(scope="module")
def expcircle():
    sys.path.insert(0, str(ROOT / "src"))
    import expcircle as pkg
    return pkg


def test_tracer_wraps_every_namespace_and_restores(expcircle):
    from expcircle import audits, circle_map, transfer_operator

    original = circle_map.evaluate
    tracer = Tracer()
    assert tracer.install() > 50
    try:
        # audits bound evaluate with `from .circle_map import evaluate`
        assert audits.evaluate is circle_map.evaluate is expcircle.evaluate
        assert circle_map.evaluate is not original
        m = expcircle.linear_map(2)
        audits.evaluate(m, np.linspace(0.0, 0.9, 7))
        psi = expcircle.uniform_density(64)
        transfer_operator.apply(m, psi)
        transfer_operator.apply(m, psi)
    finally:
        tracer.remove()
    assert circle_map.evaluate is original is audits.evaluate
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("circle_map.evaluate") == 1
    assert names.count("circle_map.linear_map") == 1
    metrics = layer_metrics(tracer.spans)
    assert metrics["circle_map.evaluate.points"] == 7
    assert metrics["circle_map.construct.calls"] == 1
    assert metrics["transfer_operator.apply.calls"] == 2
    assert metrics["transfer_operator.apply.node_evals"] == 2 * 2 * 64
    assert metrics["transfer_operator.table_builds"] == 1
    assert list(metrics) == [n for n, _ in spans.SPAN_METRICS]


def test_unreadable_work_count_is_recorded_not_raised():
    # a function whose signature no longer matches its work counter
    tracer = Tracer()
    wrapped = tracer.wrap("circle_map.evaluate", lambda m: 7)
    assert wrapped("map") == 7
    assert tracer.count_errors == ["circle_map.evaluate"]
    assert len(tracer.spans) == 1


def write_verify(out, oks, names=VERIFY_AUDITS):
    results = [{"name": n, "ok": ok} for n, ok in zip(names, oks)]
    (out / "verify.json").write_text(json.dumps({"results": results}))


def test_verify_check_counts_each_failing_verdict(tmp_path):
    write_verify(tmp_path, [True] * 29)
    assert check_verify(0, tmp_path) == (29, 0, [])
    oks = [True] * 29
    oks[15] = False                      # pointwise-log-bounds
    write_verify(tmp_path, oks)
    assert check_verify(4, tmp_path) == (29, 1, ["pointwise-log-bounds"])
    # a FAIL verdict with exit code 0 is a second failure
    assert check_verify(0, tmp_path)[1] == 2


def test_verify_check_rejects_changed_order(tmp_path):
    write_verify(tmp_path, [True] * 29, names=tuple(reversed(VERIFY_AUDITS)))
    assert check_verify(0, tmp_path)[:2] == (29, 29)
    assert check_verify(0, tmp_path / "missing")[:2] == (29, 29)


def write_coupling(out, ps):
    chi2 = [{"n": 10 * i, "p_value": p} for i, p in enumerate(ps)]
    (out / "coupling.json").write_text(json.dumps({"summary": {"chi2": chi2}}))


def test_coupling_check_counts_low_p_value(tmp_path):
    write_coupling(tmp_path, [0.3, 0.9, 0.02])
    assert check_coupling(0, tmp_path)[:2] == (1, 0)
    write_coupling(tmp_path, [0.3, 0.0, 0.02])
    assert check_coupling(0, tmp_path)[:2] == (1, 1)
    write_coupling(tmp_path, [0.3, 1e-4])       # threshold is strict
    assert check_coupling(0, tmp_path)[:2] == (1, 1)
    write_coupling(tmp_path, [0.3])
    assert check_coupling(4, tmp_path)[:2] == (1, 1)


def test_invariant_and_decay_checks(tmp_path):
    (tmp_path / "invariant.json").write_text(json.dumps(
        {"tol": 1e-12, "records": [{"l1_diff": 1e-3}, {"l1_diff": 5e-13}]}))
    assert check_invariant(0, tmp_path)[:2] == (1, 0)
    assert check_invariant(3, tmp_path)[:2] == (1, 1)
    (tmp_path / "decay.json").write_text(
        json.dumps({"summary": {"all_ok": False}}))
    assert check_decay(0, tmp_path)[:2] == (1, 1)
    (tmp_path / "decay.json").write_text(
        json.dumps({"summary": {"all_ok": True}}))
    assert check_decay(0, tmp_path)[:2] == (1, 0)


def test_tally_counts_every_failure():
    good = {"label": "coupling perturbed{2,0.1} alpha=1", "ops": 1, "failed": 0}
    bad = {"label": "verify perturbed{2,0.05}", "ops": 29, "failed": 1}
    assert run.tally([good, bad]) == (30, 1)


class CrashingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("crash")


class SilentCli:
    @staticmethod
    def main(argv):
        return 0                    # exits 0 but writes nothing


@pytest.mark.parametrize("cli", [CrashingCli, SilentCli])
def test_crash_or_missing_output_is_a_failed_operation(tmp_path, cli):
    result = run.run_pass(cli, "coupling", 42, tmp_path / "pass")
    assert run.tally(result["commands"]) == (1, 1)
    assert not (tmp_path / "pass").exists()


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.SETUP_MAPS)
