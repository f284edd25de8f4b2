"""Command-line front end: the subcommands are listed in ``COMMANDS``.

Configuration comes from an optional JSON file (``--config``) overridden
by flags; the map itself is configured in the file, e.g.::

    {"map": {"family": "perturbed", "w": 2, "eps": 0.05}, "alpha": 1.0}

Besides ``map`` and ``out``, a command takes the flags and config keys of
only the tuning values it reads, its row of ``COMMANDS``; a map takes only
the keys its family reads, its row of ``MAP_FAMILIES``.  Defaults:
perturbed{2,0.05}, alpha=1, resolution=4096, seed=42, trials=100000.
Output directory: ``--out``, else the config ``out`` key, else
``$EXPCIRCLE_OUT``, else the working directory.  Exit codes: 0 ok, else
the ``exit_code`` of the package error raised (2 configuration/map error,
3 numerical non-convergence, 4 audit violation), and 2 on a MemoryError:
an allocation that ``check_bytes`` finds above the memory cap, or one the
system refuses.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audits import cos_observable, coupling_pair, run_all
from .circle_map import linear_map, perturbed_map
from .correlation_suite import decay_report
from .coupling_lab import CHI2_BINS, _check_run_bytes, monte_carlo_coupling
from .errors import ConfigError, ExpCircleError
from .system_constants import compute_ledger
from .transfer_operator import check_bytes, invariant_density

TOL_CEILING = 1e-6       # the loosest fixed-point tolerance invariant accepts
# The longest step horizon accepted: a million applications at the default
# resolution take about a quarter of an hour.  The coupling run keeps no
# past epoch, so _check_run_bytes counts its steps at 640 bytes each, with
# its files written: 0.64 GB here, inside even a 1 GiB memory cap.
N_MAX_CEILING = 10**6
ROWS_PER_WRITE = 4096    # CSV rows formatted per write
# The flag of each tuning key but tol: (type, help).
_FLAGS = {
    "alpha": (float, "Hoelder order in (0, 1] (default 1)"),
    "resolution": (int, "grid nodes, power of two (default 4096)"),
    "seed": (int, "RNG seed (default 42)"),
    "trials": (int, "Monte-Carlo trials (default 100000)"),
    "n_max": (int, "step horizon (default: 60, coupling: 5 epochs)"),
}
# Each map family: its constructor and the map keys it reads besides
# family, in the constructor's argument order.
MAP_FAMILIES = {"linear": (linear_map, ("w",)), "perturbed": (perturbed_map, ("w", "eps"))}


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


def _load_config(path: str, command: str, keys) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, or an int past 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"map", "out", *keys}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    map_cfg = raw.get("map", {})
    if not isinstance(map_cfg, dict):
        raise ConfigError("config 'map' must be an object")
    family = map_cfg.get("family", RunConfig.family)
    if not isinstance(family, str) or family not in MAP_FAMILIES:
        raise ConfigError(
            f"unknown map family {family!r} (the CLI accepts "
            f"{' and '.join(map(repr, MAP_FAMILIES))}; custom maps are an API-only feature)"
        )
    reads = MAP_FAMILIES[family][1]
    unknown = set(map_cfg) - {"family", *reads}
    if unknown:
        raise ConfigError(f"unknown map keys: {sorted(unknown)} "
                          f"(a {family} map reads {', '.join(reads)})")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    _, keys, min_resolution, _ = COMMANDS[args.command]
    cfg = RunConfig()
    # lowest precedence first: $EXPCIRCLE_OUT, then the config, then flags
    if os.environ.get("EXPCIRCLE_OUT"):
        cfg.out = os.environ["EXPCIRCLE_OUT"]
    if args.config:
        raw = _load_config(args.config, args.command, keys)
        for key, value in {**raw.pop("map", {}), **raw}.items():   # RunConfig fields
            setattr(cfg, key, value)
    for key in ("out", *keys):
        value = getattr(args, key, None)   # tol has no flag
        if value is not None:
            setattr(cfg, key, value)
    _validate(cfg, keys, min_resolution)
    return cfg


def _check_n_max(n_max, name: str = "n_max") -> None:
    if not isinstance(n_max, int) or n_max < 1:
        raise ConfigError(f"{name} must be an integer of at least 1, got {n_max!r}")
    if n_max > N_MAX_CEILING:
        raise ConfigError(f"{name} must not exceed {N_MAX_CEILING}, got {n_max}")


def _validate(cfg: RunConfig, keys, min_resolution: int | None) -> None:
    """Check out, the map and the tuning ``keys`` the command reads; the
    keys it does not read cannot be set and keep their defaults."""
    if not isinstance(cfg.out, str):
        raise ConfigError(f"out must be a string, got {cfg.out!r}")
    read = ("w", "eps", *keys)
    for key in read:
        if isinstance(getattr(cfg, key), bool):
            raise ConfigError(f"{key} must be a number, not {getattr(cfg, key)!r}")
    if not isinstance(cfg.w, int):
        raise ConfigError(f"map winding must be an integer, got {cfg.w!r}")
    if abs(cfg.w) > 2**53:
        raise ConfigError("map winding must not exceed 2**53 in size, where "
                          "float64 stops holding every integer exactly")
    for key in ("alpha", "eps", "tol"):
        value = getattr(cfg, key)
        # refuses NaN, the infinities and ints past the float64 range
        if key in read and (not isinstance(value, (int, float))
                            or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if cfg.eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {cfg.eps!r}")
    if "tol" in keys and not 0 < cfg.tol <= TOL_CEILING:
        raise ConfigError(f"tol must lie in (0, {TOL_CEILING:g}], got {cfg.tol!r}")
    for key in ("resolution", "seed", "trials"):
        if key in keys and not isinstance(getattr(cfg, key), int):
            raise ConfigError(f"{key} must be an integer")
    if "n_max" in keys and cfg.n_max is not None:
        _check_n_max(cfg.n_max)
    M = cfg.resolution
    if "resolution" in keys and (M < min_resolution or M & (M - 1)):
        raise ConfigError(f"resolution must be a power of two >= {min_resolution}, got {M}")
    # refused before anything is allocated, as an operator table is
    check_bytes(8 * M, f"a grid of M={M} nodes takes")
    if "trials" in keys:
        if cfg.trials < 1000:
            raise ConfigError("trials must be at least 1000")
        _check_run_bytes(cfg.trials)
    if "seed" in keys and not 0 <= cfg.seed < 2**128:
        raise ConfigError(f"seed must lie in [0, 2**128), got {cfg.seed}")


def make_map(cfg: RunConfig):
    build, keys = MAP_FAMILIES[cfg.family]
    return build(*(getattr(cfg, key) for key in keys))


@contextlib.contextmanager
def _writing(path: Path):
    """Report a file that cannot be written as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _numpy_to_json(value):
    """The JSON fallback: numpy arrays and scalars as Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, payload) -> None:
    # streamed: at one-step epochs and a long horizon, coupling.json's
    # chi-square list held as one string is the command's largest allocation
    with _writing(path), path.open("w") as fh:
        json.dump(payload, fh, indent=2, default=_numpy_to_json)
        fh.write("\n")


def _rows(names, values) -> list:
    """The columns ``values`` as one dict per row, keyed by ``names``."""
    return [dict(zip(names, row)) for row in zip(*(v.tolist() for v in values))]


def _write_rows(path, header: str, row_format: str, data: np.ndarray) -> None:
    """Write ``header``, then ``row_format % row`` for each row of the 2-D
    ``data``, one line each: the bytes np.savetxt writes with the same
    format, which applies the same ``%`` to the same doubles row by row.
    Rows are formatted ROWS_PER_WRITE at a time, one ``%`` and one write
    per block instead of one per row."""
    line = row_format + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for s in range(0, len(data), ROWS_PER_WRITE):
            block = data[s:s + ROWS_PER_WRITE]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_table(out: Path, stem: str, columns, payload: dict) -> None:
    """Write ``columns``, a list of (name, values, printf format), as
    ``<stem>.csv``, and ``payload``, which names that CSV, as ``<stem>.json``."""
    names, values, fmt = zip(*columns)
    csv_path = out / f"{stem}.csv"
    with _writing(csv_path):
        _write_rows(csv_path, ",".join(names), ",".join(fmt),
                    np.column_stack(values))
    _write_json(out / f"{stem}.json", {**payload, "csv": csv_path.name})
    print(f"wrote {csv_path}")
    print(f"wrote {out / f'{stem}.json'}")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_constants(cfg: RunConfig) -> int:
    led = compute_ledger(make_map(cfg), cfg.alpha)
    path = _out_dir(cfg) / "constants.json"
    _write_json(path, led.to_dict())
    print(f"wrote {path}")
    return 0


def cmd_invariant(cfg: RunConfig) -> int:
    m = make_map(cfg)
    phi, diag = invariant_density(m, resolution=cfg.resolution, tol=cfg.tol)
    payload = {
        "map": repr(m),
        "resolution": cfg.resolution,
        "tol": cfg.tol,
        "n_steps": diag.n_steps,
        "final_sup": float(diag.sup[-1]),
        "final_inf": float(diag.inf[-1]),
        "records": _rows(("step", "l1_diff", "sup", "inf", "d_l1"),
                         (np.arange(1, diag.n_steps + 1), diag.l1_diff,
                          diag.sup, diag.inf, diag.d_l1)),
    }
    _write_table(_out_dir(cfg), "invariant", [
        ("x", phi.nodes, "%.17g"),
        ("value", phi.values, "%.17g"),
    ], payload)
    return 0


def cmd_decay(cfg: RunConfig) -> int:
    m = make_map(cfg)
    f = cos_observable(cfg.resolution)
    n_max = cfg.n_max or 60
    (rep,), = decay_report(m, [f], f, (cfg.alpha,), n_max=n_max)
    _write_table(_out_dir(cfg), "decay", [
        ("n", rep.ns, "%d"),
        ("corr", rep.corr, "%.17g"),
        ("bound", rep.bound, "%.17g"),
        ("ok", rep.ok, "%d"),
    ], {"resolution": cfg.resolution, "n_max": n_max, "summary": rep.summary(),
        "observables": "f = g = cos(2 pi x)"})
    if not rep.all_ok():
        print("decay bound violated", file=sys.stderr)
        return 4
    return 0


def cmd_coupling(cfg: RunConfig) -> int:
    m = make_map(cfg)
    n_max = cfg.n_max
    if n_max is None:   # five epochs, held to the same ceiling as --n-max
        n_max = 5 * compute_ledger(m, cfg.alpha).n_big_k
        _check_n_max(n_max, "the default n_max of 5 epochs")
    psi1, psi2 = coupling_pair(cfg.resolution)
    trace = monte_carlo_coupling(m, psi1, psi2, cfg.alpha, n_max,
                                 trials=cfg.trials, seed=cfg.seed)
    _write_table(_out_dir(cfg), "coupling", [
        ("n", trace.ns, "%d"),
        ("k", trace.ks, "%d"),
        ("tv_true", trace.tv_true, "%.17g"),
        ("empirical_mismatch", trace.empirical_mismatch, "%.17g"),
        ("bound_coupling", trace.bound_coupling, "%.17g"),
        ("bound_theta", trace.bound_theta, "%.17g"),
    ], {"map": repr(m), "resolution": cfg.resolution, "summary": trace.summary()})
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    m = make_map(cfg)
    n_max = cfg.n_max or 60
    results = run_all(m, seed=cfg.seed, trials=cfg.trials,
                      resolution=cfg.resolution, n_max=n_max)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.ok]
    print(f"{len(results)} audits on {m!r}: "
          f"{len(results) - len(failed)} passed, {len(failed)} failed")
    out = _out_dir(cfg)
    _write_json(out / "verify.json", {
        "map": repr(m), "seed": cfg.seed, "trials": cfg.trials,
        "resolution": cfg.resolution, "n_max": n_max,
        "results": [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results],
    })
    print(f"wrote {out / 'verify.json'}")
    return 4 if failed else 0


# Each command: its function, the tuning keys it reads besides map and out
# (the only flags and config keys it takes), its coarsest grid and its help.
# coupling and verify bin their sampled marginals into CHI2_BINS arcs of
# cells.  verify's operator-mass gate, MASS_TOL = 1e-10, sees the 4-point
# stencil's quadrature error, which falls like h**4: up to 1.85e-10 at
# M = 512, at most 1.05e-11 from M = 1024 on perturbed maps of degree 2-16.
COMMANDS = {
    "constants": (cmd_constants, ("alpha",), None,
                  "emit the closed-form constants ledger for (map, alpha)"),
    "invariant": (cmd_invariant, ("resolution", "tol"), 16,
                  "compute the invariant density: CSV nodes + JSON diagnostics"),
    "decay": (cmd_decay, ("alpha", "resolution", "n_max"), 16,
              "correlation decay of f = g = cos(2 pi x) against its envelope"),
    "coupling": (cmd_coupling, ("alpha", "resolution", "seed", "trials", "n_max"),
                 CHI2_BINS, "Monte-Carlo coupling run: CSV series + JSON summary"),
    "verify": (cmd_verify, ("resolution", "seed", "trials", "n_max"), 1024,
               "run every audit sweep and report pass/fail per property"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcircle", description="Transfer-operator toolkit for expanding circle maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory "
                       "(default: config, then $EXPCIRCLE_OUT, then cwd)")
        for key in keys:
            if key in _FLAGS:
                kind, flag_help = _FLAGS[key]
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                               help=flag_help)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return COMMANDS[args.command][0](cfg)
    except ExpCircleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
