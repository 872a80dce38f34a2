"""Command-line driver for single-config queries, sweeps, and presets.

Exit codes: 0 on success, 2 for an invalid specification, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .analysis import analytic_error_probs, transmission_savings_bounds
from .attack import deflection_coefficient
from .core import ModelConfig
from .sweep import (
    METRICS,
    PARAM_FIELDS,
    PRESET_NAMES,
    SWEEP_PARAMS,
    SpecError,
    SweepResult,
    SweepSpec,
    emit_csv,
    preset_specs,
    run_sweep,
    summarize,
)

_DEFAULTS = {
    "N": 10,
    "s": 3.0,
    "sigma2": 1.0,
    "alpha0": 0.0,
    "D": 0.0,
    "prior_h1": 0.5,
    "trials": 10_000,
    "seed": 0,
}
_INT_KEYS = {"N", "trials", "seed"}


def _read_config_file(path: str) -> dict:
    """Parse a plain  key = value  config file (# starts a comment)."""
    values: dict[str, float | int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _DEFAULTS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--N", type=int, help="number of sensors")
    p.add_argument("--s", type=float, help="signal strength")
    p.add_argument("--sigma2", type=float, help="noise variance")
    p.add_argument("--alpha0", type=float, help="compromised fraction")
    p.add_argument("--D", type=float, help="attack strength")
    p.add_argument("--prior-h1", dest="prior_h1", type=float, help="prior of H1")
    p.add_argument("--seed", type=int, help="base random seed (64-bit)")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per grid point")
    p.add_argument("--out", metavar="PATH", help="output CSV path (or stem for presets)")
    p.add_argument("--paper-scale", action="store_true", help="full-size N for presets")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes a sweep's grid points are split over (>= 1; capped by the grid "
        "length and the usable CPUs); the output is the same at every count",
    )


def _settings(args: argparse.Namespace, defaults: dict = _DEFAULTS) -> dict:
    values = dict(defaults)
    if args.config:
        values.update(_read_config_file(args.config))
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            values[key] = cli_val
    if args.workers < 1:
        raise SpecError(f"--workers must be >= 1, got {args.workers}")
    return values


def _model_config(values: dict) -> ModelConfig:
    return ModelConfig(**{fld: values[key] for key, fld in PARAM_FIELDS.items()})


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:step' (stop inclusive) or 'v1,v2,...'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError(f"grid range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise SpecError(f"bad grid range {text!r}") from exc
        if step <= 0:
            raise SpecError("grid step must be > 0")
        count = int(round((stop - start) / step))
        grid = tuple(start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12)
        return grid
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad grid list {text!r}") from exc


def _print_kv(pairs: list[tuple[str, object]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


def _check_writable(path: Path) -> None:
    """Raise OSError (exit 3) now if ``path`` cannot be written later."""
    parent = path.parent
    if not parent.is_dir():
        raise OSError(f"cannot write {path}: directory {parent} does not exist")
    if path.is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    target = path if path.exists() else parent
    if not os.access(target, os.W_OK):
        raise OSError(f"cannot write {path}: permission denied")


def _write_single_row(columns: list[str], row: list[float | None], out: str) -> None:
    result = SweepResult(columns=tuple(columns), rows=(tuple(row),), provenance={})
    emit_csv(result, out)


def _cmd_dc(args: argparse.Namespace) -> int:
    cfg = _model_config(_settings(args))
    a = deflection_coefficient(cfg)
    d_star = f"{a.d_star!r}" if cfg.byz_frac > 0 else "NA (no compromised sensors)"
    _print_kv(
        [
            ("dc", a.dc),
            ("mean_z_h1", a.mean_z_h1),
            ("mean_z_h0", a.mean_z_h0),
            ("var_z_h0", a.var_z_h0),
            ("d_star", d_star),
        ]
    )
    if args.out:
        _write_single_row(
            ["dc", "mean_z_h1", "mean_z_h0", "var_z_h0", "d_star"],
            [a.dc, a.mean_z_h1, a.mean_z_h0, a.var_z_h0, a.d_star if cfg.byz_frac > 0 else None],
            args.out,
        )
    return 0


def _cmd_pe(args: argparse.Namespace) -> int:
    cfg = _model_config(_settings(args))
    probs = analytic_error_probs(cfg)
    _print_kv(
        [
            ("p_d", probs.p_d),
            ("p_f", probs.p_f),
            ("p_e", probs.p_e),
            ("threshold", probs.threshold),
        ]
    )
    if args.out:
        _write_single_row(
            ["p_d", "p_f", "p_e", "threshold"],
            [probs.p_d, probs.p_f, probs.p_e, probs.threshold],
            args.out,
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    values = _settings(args)
    cfg = _model_config(values)
    if args.out:
        _check_writable(Path(args.out))
    report = transmission_savings_bounds(
        cfg, mode=args.mode, n_samples=max(values["trials"], 1000), seed=values["seed"]
    )
    _print_kv(
        [
            ("mode", report.mode),
            ("lb_saved", report.lb_saved),
            ("ub_saved", report.ub_saved),
            ("lb_saved_frac", report.lb_saved / cfg.n_sensors),
            ("ub_saved_frac", report.ub_saved / cfg.n_sensors),
        ]
    )
    if args.out:
        _write_single_row(
            ["lb_saved", "ub_saved"], [report.lb_saved, report.ub_saved], args.out
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = _settings(args)
    spec = SweepSpec(
        base=_model_config(values),
        sweep_param=args.param,
        grid=_parse_grid(args.grid),
        metrics=tuple(m.strip() for m in args.metrics.split(",")),
        n_trials=values["trials"],
        seed=values["seed"],
    )
    if args.out:
        _check_writable(Path(args.out))
    result = run_sweep(spec, args.workers)
    print(summarize(result))
    if args.out:
        path = emit_csv(result, args.out)
        print(f"wrote {path}")
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    # Unless the CLI or the config file sets trials, the preset's own default applies.
    # The preset fixes the model, so its parameters must be set by neither.
    values = _settings(args, {**_DEFAULTS, **dict.fromkeys(PARAM_FIELDS), "trials": None})
    fixed = [key for key in PARAM_FIELDS if values[key] is not None]
    if fixed:
        raise SpecError(
            f"preset {args.name} fixes the model parameters; do not set {', '.join(fixed)}"
        )
    pairs = preset_specs(
        args.name, paper_scale=args.paper_scale, n_trials=values["trials"], seed=values["seed"]
    )
    stem = Path(args.out) if args.out else Path(args.name)
    out_paths = [stem.with_name(f"{stem.name}_{label}.csv") for label, _ in pairs]
    for out_path in out_paths:
        _check_writable(out_path)
    for (label, spec), out_path in zip(pairs, out_paths):
        result = run_sweep(spec, args.workers)
        emit_csv(result, out_path)
        print(f"[{args.name}/{label}]")
        print(summarize(result))
        print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otdetect",
        description="Ordered-transmission detection under Byzantine attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate metrics over a parameter grid")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--grid", required=True, help="start:stop:step or v1,v2,...")
    p_sweep.add_argument(
        "--metrics", required=True, help="comma list from: " + ",".join(METRICS)
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="run a canned figure-style sweep")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    _add_common_flags(p_preset)
    p_preset.set_defaults(func=_cmd_preset)

    p_dc = sub.add_parser("dc", help="deflection coefficient and blinding strength")
    _add_common_flags(p_dc)
    p_dc.set_defaults(func=_cmd_dc)

    p_pe = sub.add_parser("pe", help="analytic detection/error probabilities")
    _add_common_flags(p_pe)
    p_pe.set_defaults(func=_cmd_pe)

    p_bounds = sub.add_parser("bounds", help="bounds on expected transmissions saved")
    _add_common_flags(p_bounds)
    p_bounds.add_argument("--mode", choices=("population", "empirical"), default="population")
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


# Building the parser costs far more than parsing with it; build it once.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
