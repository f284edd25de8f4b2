"""Workload definitions and output checks of the expcircle benchmark.

A workload is a list of ``expcircle`` command lines built from the seed.
Each command runs in-process through ``expcircle.cli.main`` into its own
output directory; ``check_*`` then reads what it wrote and returns
``(ops, failed, labels)``: the operations attempted, how many failed, and
a label per failed operation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The five standard maps of expcircle.audits.standard_maps, as CLI configs.
STANDARD_MAPS = (
    ("linear{2}", {"family": "linear", "w": 2}),
    ("linear{3}", {"family": "linear", "w": 3}),
    ("perturbed{2,0.02}", {"family": "perturbed", "w": 2, "eps": 0.02}),
    ("perturbed{2,0.05}", {"family": "perturbed", "w": 2, "eps": 0.05}),
    ("perturbed{2,0.1}", {"family": "perturbed", "w": 2, "eps": 0.1}),
)

# Maps each workload constructs; their construction and certification is
# part of set-up.  The CLI default map is perturbed{2,0.05}.
SETUP_MAPS = {
    "verify": (("perturbed", 2, 0.05),),
    "coupling": (("perturbed", 2, 0.1),),
    "decay": (("linear", 2), ("linear", 3), ("perturbed", 2, 0.02),
              ("perturbed", 2, 0.05), ("perturbed", 2, 0.1)),
}

# The verdicts of `expcircle verify`, in report order.
VERIFY_AUDITS = (
    "certificate", "second-derivative-fd", "arc-expansion",
    "preimage-roundtrip", "preimage-partition", "backward-contraction",
    "distortion", "operator-mass", "operator-positivity",
    "operator-contraction", "operator-duality", "sup-c1-bounds",
    "holder-log-contraction", "holder-growth-cap", "positivity-floor",
    "pointwise-log-bounds", "holder-from-log", "class-entry",
    "invariant-density", "cesaro-almost-invariance",
    "coupling-deterministic", "coupling-monte-carlo", "correlation-decay",
    "reduction-chain", "density-convergence", "grid-quadrature", "sampling",
    "constants-reference", "constants-monotonic",
)

# Threshold of audit_coupling_monte_carlo on the marginal chi-square tests.
CHI2_P_MIN = 1e-4


@dataclass
class Command:
    """One CLI invocation: ``argv`` without ``--out`` and ``--config``, which
    the runner adds; ``config`` is the map section of the config file."""

    label: str
    name: str
    argv: list
    config: dict | None = None

    def full_argv(self, out: Path, config_path: Path) -> list:
        """The argv, writing the map config (if any) to ``config_path``."""
        argv = [self.name, *self.argv, "--out", str(out)]
        if self.config is not None:
            config_path.write_text(json.dumps({"map": self.config}))
            argv += ["--config", str(config_path)]
        return argv


def commands(workload: str, seed: int) -> list:
    if workload == "verify":
        return [Command("verify perturbed{2,0.05}", "verify",
                        ["--seed", str(seed)])]
    if workload == "coupling":
        return [Command("coupling perturbed{2,0.1} alpha=1", "coupling",
                        ["--alpha", "1", "--trials", "100000",
                         "--seed", str(seed)],
                        {"family": "perturbed", "w": 2, "eps": 0.1})]
    if workload == "decay":
        # The decay workload has no random input; the seed is not used.
        return [Command(f"{name} {label}", name, ["--resolution", "65536"], cfg)
                for label, cfg in STANDARD_MAPS
                for name in ("invariant", "decay")]
    raise ValueError(f"unknown workload {workload!r}")


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_verify(code: int, out: Path):
    """One operation per audit verdict: the 29 names in order, each PASS."""
    data = _load(out / "verify.json")
    results = data.get("results") if isinstance(data, dict) else None
    if not isinstance(results, list):
        return len(VERIFY_AUDITS), len(VERIFY_AUDITS), ["verify.json missing"]
    names = [r.get("name") for r in results]
    if names != list(VERIFY_AUDITS):
        return (len(VERIFY_AUDITS), len(VERIFY_AUDITS),
                [f"audit names/order changed: {names}"])
    bad = [r["name"] for r in results if r.get("ok") is not True]
    if code != (4 if bad else 0):
        bad.append(f"exit code {code}")
    return len(VERIFY_AUDITS), len(bad), bad


def check_coupling(code: int, out: Path):
    """Exit 0 and every chi-square p-value above the audit threshold."""
    if code != 0:
        return 1, 1, [f"exit code {code}"]
    data = _load(out / "coupling.json")
    try:
        ps = [c["p_value"] for c in data["summary"]["chi2"]]
    except (TypeError, KeyError):
        return 1, 1, ["coupling.json missing or malformed"]
    low = [p for p in ps if not p > CHI2_P_MIN]
    if not ps or low:
        return 1, 1, [f"chi2 p-values {low} not above {CHI2_P_MIN}"]
    return 1, 0, []


def check_invariant(code: int, out: Path):
    """Exit 0 and invariant.json reporting convergence below its tol."""
    if code != 0:
        return 1, 1, [f"exit code {code}"]
    data = _load(out / "invariant.json")
    try:
        converged = data["records"][-1]["l1_diff"] < data["tol"]
    except (TypeError, KeyError, IndexError):
        return 1, 1, ["invariant.json missing or malformed"]
    return (1, 0, []) if converged else (1, 1, ["no convergence"])


def check_decay(code: int, out: Path):
    """Exit 0 and all_ok true in decay.json."""
    if code != 0:
        return 1, 1, [f"exit code {code}"]
    data = _load(out / "decay.json")
    try:
        ok = data["summary"]["all_ok"] is True
    except (TypeError, KeyError):
        return 1, 1, ["decay.json missing or malformed"]
    return (1, 0, []) if ok else (1, 1, ["all_ok is false"])


CHECKS = {
    "verify": check_verify,
    "coupling": check_coupling,
    "invariant": check_invariant,
    "decay": check_decay,
}
