"""Command-line front end.

Subcommands
-----------
constants   emit the closed-form constants ledger for (map, alpha)
invariant   compute the invariant density; CSV nodes + JSON diagnostics
decay       correlation decay for f = g = cos(2 pi x) against the
            explicit envelope; CSV series + JSON summary
coupling    Monte-Carlo coupling run; CSV series + JSON summary
verify      run every audit sweep and report pass/fail per property

Configuration comes from an optional JSON file (``--config``) overridden
by flags; the map itself is configured in the file, e.g.::

    {"map": {"family": "perturbed", "w": 2, "eps": 0.05}, "alpha": 1.0}

Defaults: perturbed{2,0.05}, alpha=1, resolution=4096, seed=42,
trials=100000.  Output directory: ``--out``, else the config ``out`` key,
else ``$EXPCIRCLE_OUT``, else the working directory.  Exit codes: 0 ok,
2 configuration/map error (including a resolution whose arrays do not
fit in memory), 3 numerical non-convergence, 4 audit violation.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audits import cos_observable, cosine_density, run_all
from .circle_map import linear_map, perturbed_map
from .correlation_suite import decay_report
from .coupling_lab import monte_carlo_coupling
from .density_grid import GridDensity, write_csv
from .errors import (
    VIOLATIONS,
    CertificationError,
    ConfigError,
    InvalidAlpha,
    NoConvergence,
    NonPositiveDensity,
    ResolutionMismatch,
    RootFindingFailure,
    ZeroObservable,
)
from .system_constants import compute_ledger
from .transfer_operator import invariant_density

CONFIG_KEYS = {"map", "alpha", "resolution", "seed", "trials", "n_max",
               "tol", "out"}
MAP_KEYS = {"family", "w", "eps"}

_CONFIG_ERRORS = (ConfigError, CertificationError, InvalidAlpha,
                  ZeroObservable, ResolutionMismatch, NonPositiveDensity)
_CONVERGENCE_ERRORS = (NoConvergence, RootFindingFailure)


@dataclass
class RunConfig:
    family: str = "perturbed"
    w: int = 2
    eps: float = 0.05
    alpha: float = 1.0
    resolution: int = 4096
    seed: int = 42
    trials: int = 100_000
    n_max: int | None = None
    tol: float = 1e-12
    out: str = "."


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    map_cfg = raw.get("map", {})
    if not isinstance(map_cfg, dict):
        raise ConfigError("config 'map' must be an object")
    unknown = set(map_cfg) - MAP_KEYS
    if unknown:
        raise ConfigError(f"unknown map keys: {sorted(unknown)}")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = _load_config(args.config)
        map_cfg = raw.get("map", {})
        cfg.family = map_cfg.get("family", cfg.family)
        cfg.w = map_cfg.get("w", cfg.w)
        cfg.eps = map_cfg.get("eps", cfg.eps)
        for key in ("alpha", "resolution", "seed", "trials", "n_max",
                    "tol", "out"):
            if key in raw:
                setattr(cfg, key, raw[key])
    for key in ("alpha", "resolution", "seed", "trials", "n_max"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            setattr(cfg, key, value)
    if args.out is not None:
        cfg.out = args.out
    elif cfg.out == "." and os.environ.get("EXPCIRCLE_OUT"):
        cfg.out = os.environ["EXPCIRCLE_OUT"]
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not isinstance(cfg.w, int) or isinstance(cfg.w, bool):
        raise ConfigError(f"map winding must be an integer, got {cfg.w!r}")
    for key in ("alpha", "eps", "tol"):
        value = getattr(cfg, key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if cfg.eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {cfg.eps!r}")
    for key in ("resolution", "seed", "trials"):
        if not isinstance(getattr(cfg, key), int):
            raise ConfigError(f"{key} must be an integer")
    if cfg.n_max is not None and (not isinstance(cfg.n_max, int) or cfg.n_max < 1):
        raise ConfigError(f"n_max must be an integer of at least 1, got {cfg.n_max!r}")
    M = cfg.resolution
    if M < 16 or M & (M - 1):
        raise ConfigError(f"resolution must be a power of two >= 16, got {M}")
    if cfg.trials < 1000:
        raise ConfigError("trials must be at least 1000")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")


def make_map(cfg: RunConfig):
    if cfg.family == "linear":
        return linear_map(cfg.w)
    if cfg.family == "perturbed":
        return perturbed_map(cfg.w, cfg.eps)
    raise ConfigError(
        f"unknown map family {cfg.family!r} (the CLI accepts 'linear' and "
        "'perturbed'; custom maps are an API-only feature)"
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _coupling_pair(resolution: int):
    return cosine_density(resolution), GridDensity(np.ones(resolution))


def cmd_constants(cfg: RunConfig) -> int:
    led = compute_ledger(make_map(cfg), cfg.alpha)
    path = _out_dir(cfg) / "constants.json"
    _write_json(path, led.to_dict())
    print(f"wrote {path}")
    return 0


def cmd_invariant(cfg: RunConfig) -> int:
    m = make_map(cfg)
    phi, diag = invariant_density(m, resolution=cfg.resolution, tol=cfg.tol)
    out = _out_dir(cfg)
    csv_path = out / "invariant.csv"
    write_csv(phi, csv_path)
    payload = {
        "map": repr(m),
        "resolution": cfg.resolution,
        "tol": cfg.tol,
        "n_steps": diag.n_steps,
        "final_sup": diag.final_sup,
        "final_inf": diag.final_inf,
        "records": diag.to_records(),
        "density": {"x": (np.arange(cfg.resolution) / cfg.resolution),
                    "value": phi.values},
    }
    _write_json(out / "invariant.json", payload)
    print(f"wrote {csv_path} ({diag.n_steps} steps)")
    print(f"wrote {out / 'invariant.json'}")
    return 0


def cmd_decay(cfg: RunConfig) -> int:
    m = make_map(cfg)
    f = cos_observable(cfg.resolution)
    rep, = decay_report(m, [f], f, cfg.alpha, n_max=cfg.n_max or 60)
    out = _out_dir(cfg)
    csv_path = out / "decay.csv"
    rep.to_csv(csv_path)
    payload = {
        "summary": rep.summary(),
        "observables": "f = g = cos(2 pi x)",
        "rows": [
            {"n": n, "corr": c, "bound": b, "ok": o}
            for n, c, b, o in zip(rep.ns, rep.corr, rep.bound, rep.ok)
        ],
    }
    _write_json(out / "decay.json", payload)
    print(f"wrote {csv_path}")
    print(f"wrote {out / 'decay.json'}")
    if not rep.all_ok():
        print("decay bound violated", file=sys.stderr)
        return 4
    return 0


def cmd_coupling(cfg: RunConfig) -> int:
    m = make_map(cfg)
    psi1, psi2 = _coupling_pair(cfg.resolution)
    trace = monte_carlo_coupling(m, psi1, psi2, cfg.alpha, cfg.n_max,
                                 trials=cfg.trials, seed=cfg.seed)
    out = _out_dir(cfg)
    csv_path = out / "coupling.csv"
    trace.to_csv(csv_path)
    payload = {
        "map": repr(m),
        "summary": trace.summary(),
        "rows": [
            {"n": n, "k": k, "tv_true": tv, "empirical_mismatch": em,
             "bound_coupling": bc, "bound_theta": bt}
            for n, k, tv, em, bc, bt in zip(
                trace.ns, trace.ks, trace.tv_true, trace.empirical_mismatch,
                trace.bound_coupling, trace.bound_theta)
        ],
    }
    _write_json(out / "coupling.json", payload)
    print(f"wrote {csv_path}")
    print(f"wrote {out / 'coupling.json'}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    m = make_map(cfg)
    results = run_all(m, seed=cfg.seed, trials=cfg.trials,
                      resolution=cfg.resolution, n_max=cfg.n_max or 60)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.ok]
    print(f"{len(results)} audits on {m!r}: "
          f"{len(results) - len(failed)} passed, {len(failed)} failed")
    out = _out_dir(cfg)
    _write_json(out / "verify.json", {
        "map": repr(m),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "resolution": cfg.resolution,
        "results": [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results],
    })
    print(f"wrote {out / 'verify.json'}")
    return 4 if failed else 0


_COMMANDS = {
    "constants": cmd_constants,
    "invariant": cmd_invariant,
    "decay": cmd_decay,
    "coupling": cmd_coupling,
    "verify": cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcircle",
        description="Transfer-operator toolkit for expanding circle maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "emit the constants ledger as JSON"),
        ("invariant", "compute the invariant density"),
        ("decay", "correlation decay report for cos observables"),
        ("coupling", "Monte-Carlo coupling run"),
        ("verify", "run every audit sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory "
                       "(default: config, then $EXPCIRCLE_OUT, then cwd)")
        p.add_argument("--seed", type=int, help="RNG seed (default 42)")
        p.add_argument("--resolution", type=int,
                       help="grid nodes, power of two (default 4096)")
        p.add_argument("--alpha", type=float,
                       help="Hoelder order in (0, 1] (default 1)")
        p.add_argument("--n-max", type=int, dest="n_max",
                       help="step horizon (default: 60, coupling: 5 epochs)")
        p.add_argument("--trials", type=int,
                       help="Monte-Carlo trials (default 100000)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VIOLATIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
