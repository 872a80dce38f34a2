"""Command-line driver for single-config queries, sweeps, and presets.

Exit codes: 0 on success, 2 for an invalid specification, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .analysis import analytic_error_probs, transmission_savings_bounds
from .attack import deflection_coefficient, optimal_attack_strength
from .core import ModelConfig
from .protocol import empirical_savings_bounds
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
    run_sweeps,
    summarize,
)

# Every setting a command can read: key -> (type, default, help).  The CLI flag
# is "--" + key with "_" as "-"; a config file uses the key itself.
_SETTINGS = {
    "N": (int, 10, "number of sensors"),
    "s": (float, 3.0, "signal strength"),
    "sigma2": (float, 1.0, "noise variance"),
    "alpha0": (float, 0.0, "compromised fraction"),
    "D": (float, 0.0, "attack strength"),
    "prior_h1": (float, 0.5, "prior of H1"),
    "trials": (int, 10_000, "Monte-Carlo trials per grid point"),
    "seed": (int, 0, "base random seed (64-bit)"),
}
_MODEL = tuple(PARAM_FIELDS)
_MC = ("trials", "seed")


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
        if key not in _SETTINGS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key][0](val)
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _settings(args: argparse.Namespace, **defaults) -> dict:
    """Defaults < config file < CLI, over the settings ``args.reads`` of the command.

    A config-file key the command does not read is refused, and so is a base
    value for the parameter a sweep sets from its grid.
    """
    given = _read_config_file(args.config) if args.config else {}
    given |= {key: getattr(args, key) for key in args.reads if getattr(args, key) is not None}
    unused = [key for key in given if key not in args.reads]
    if unused:
        raise SpecError(f"{args.command} does not use {', '.join(unused)}")
    swept = getattr(args, "param", None)
    if swept in given:
        raise SpecError(f"sweep --param {swept} sets {swept} from --grid; do not set it")
    if getattr(args, "workers", 1) < 1:
        raise SpecError(f"--workers must be >= 1, got {args.workers}")
    return {key: default for key, (_, default, _) in _SETTINGS.items()} | defaults | given


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
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise SpecError(f"grid range {text!r} must have a finite start, stop and step")
        if step <= 0:
            raise SpecError("grid step must be > 0")
        count = int(round((stop - start) / step))
        grid = tuple(start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12)
        return grid
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad grid list {text!r}") from exc


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


def _cmd_point(args: argparse.Namespace) -> int:
    """Evaluate one config: print its ``key  value`` table, then write a one-row CSV."""
    values = _settings(args)
    cfg = _model_config(values)
    if args.out:
        _check_writable(Path(args.out))
    pairs, row = args.evaluate(args, values, cfg)
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")
    if args.out:
        emit_csv(SweepResult(columns=tuple(row), rows=(tuple(row.values()),)), args.out)
    return 0


def _dc(args: argparse.Namespace, values: dict, cfg: ModelConfig) -> tuple[list, dict]:
    a = deflection_coefficient(cfg)
    d_star = optimal_attack_strength(cfg) if cfg.byz_frac > 0 else None
    row = {"dc": a.dc, "mean_z_h1": a.mean_z_h1, "mean_z_h0": a.mean_z_h0,
           "var_z_h0": a.var_z_h0, "d_star": d_star}
    shown = {**row, "d_star": "NA (no compromised sensors)" if d_star is None else d_star}
    return list(shown.items()), row


def _pe(args: argparse.Namespace, values: dict, cfg: ModelConfig) -> tuple[list, dict]:
    probs = analytic_error_probs(cfg)
    row = {"p_d": probs.p_d, "p_f": probs.p_f, "p_e": probs.p_e, "threshold": probs.threshold}
    return list(row.items()), row


def _bounds(args: argparse.Namespace, values: dict, cfg: ModelConfig) -> tuple[list, dict]:
    if args.mode == "empirical":
        if values["trials"] < 1000:
            raise SpecError(f"--mode empirical needs --trials >= 1000, got {values['trials']}")
        report = empirical_savings_bounds(cfg, values["trials"], values["seed"])
    else:
        report = transmission_savings_bounds(cfg)
    pairs = [
        ("mode", args.mode),
        ("lb_saved", report.lb_saved),
        ("ub_saved", report.ub_saved),
        ("lb_saved_frac", report.lb_saved / cfg.n_sensors),
        ("ub_saved_frac", report.ub_saved / cfg.n_sensors),
    ]
    return pairs, {"lb_saved": report.lb_saved, "ub_saved": report.ub_saved}


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
    values = _settings(args, trials=None)
    pairs = preset_specs(
        args.name, paper_scale=args.paper_scale, n_trials=values["trials"], seed=values["seed"]
    )
    # The stem's last component prefixes every file name, so it must name a file.
    if args.out and os.path.basename(args.out) in ("", ".", ".."):
        raise SpecError(f"preset --out takes a file stem such as results/fig2, not {args.out!r}")
    stem = Path(args.out) if args.out else Path(args.name)
    out_paths = [stem.with_name(f"{stem.name}_{label}.csv") for label, _ in pairs]
    for out_path in out_paths:
        _check_writable(out_path)
    results = run_sweeps([spec for _, spec in pairs], args.workers)
    for (label, _), result, out_path in zip(pairs, results, out_paths):
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

    def command(name: str, help_text: str, reads: tuple[str, ...], **defaults):
        # No abbreviations: preset's --seed would otherwise take a model flag --s.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for key in reads:
            kind, _, text = _SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
        p.add_argument("--out", metavar="PATH", help="output CSV path (or stem for presets)")
        p.set_defaults(reads=reads, parser=p, **defaults)
        return p

    p_sweep = command("sweep", "evaluate metrics over a parameter grid", _MODEL + _MC,
                      func=_cmd_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--grid", required=True, help="start:stop:step or v1,v2,...")
    p_sweep.add_argument(
        "--metrics", required=True, help="comma list from: " + ",".join(METRICS)
    )

    p_preset = command("preset", "run a canned figure-style sweep", _MC, func=_cmd_preset)
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--paper-scale", action="store_true", help="full-size N for presets")

    for p in (p_sweep, p_preset):
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes a sweep's grid points are split over (>= 1; capped by the grid "
            "length and the usable CPUs); the output is the same at every count",
        )

    command("dc", "deflection coefficient and blinding strength", _MODEL,
            func=_cmd_point, evaluate=_dc)
    command("pe", "analytic detection/error probabilities", _MODEL,
            func=_cmd_point, evaluate=_pe)
    p_bounds = command("bounds", "bounds on expected transmissions saved", _MODEL + _MC,
                       func=_cmd_point, evaluate=_bounds)
    p_bounds.add_argument("--mode", choices=("population", "empirical"), default="population")

    return parser


# Building the parser costs far more than parsing with it; build it once.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:
        # Refused through the subcommand's parser, so the usage shown is its own.
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
