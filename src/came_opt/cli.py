"""Command-line benchmark harness.

Subcommands: run one training experiment, compare optimizers across seeds,
check analytic gradients against the finite-difference oracle, and render
the optimizer-state memory report for a shape manifest.

Options resolve with precedence flags > config file > defaults. A config
file is flat ``key = value`` text (same keys as the long flag names with
dashes as underscores, ``#`` comments). Failures print a machine-readable
JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from .memory_model import (
    _BUNDLED,
    MEMORY_OPTIMIZERS,
    bundled_manifest,
    load_manifest,
    render_table,
    report,
    scale_manifest,
)
from .optimizers import VARIANTS, InvalidConfig, OptimizerConfig
from .problems import PROBLEM_BUILDERS, build_problem, gradient_report
from .runner import (
    RunConfig,
    compare,
    run,
    write_compare_outputs,
    write_outputs,
    write_run_outputs,
)

CONFIG_HELP = (
    "config file: flat 'key = value' lines, '#' comments; keys are the long "
    "flag names with underscores (e.g. clip_d, warmup); "
    "precedence is flags > file > defaults"
)


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidConfig("seeds", f"expected comma-separated integers, got {text!r}") from exc


def _parse_problem_spec(text: str):
    """'name' or 'name:key=value,key=value' with numeric values."""
    name, _, tail = str(text).partition(":")
    args: Dict[str, object] = {}
    if tail:
        for piece in tail.split(","):
            if not piece.strip():
                continue
            key, sep, value = piece.partition("=")
            if not sep:
                raise InvalidConfig(
                    "problem", f"expected key=value in problem args, got {piece!r}"
                )
            key = key.strip()
            value = value.strip()
            if key in args:
                raise InvalidConfig("problem", f"problem argument {key!r} given twice")
            try:
                args[key] = int(value)
            except ValueError:
                try:
                    args[key] = float(value)
                except ValueError:
                    raise InvalidConfig(
                        "problem", f"problem argument {key!r} must be numeric, got {value!r}"
                    ) from None
    return name.strip(), args


# Every option: name -> (flag, parser from string, default, help). The name
# is also the config-file key and the argparse dest.
_CFG_DEFAULTS = OptimizerConfig()

_OPTIONS: Dict[str, tuple] = {
    "problem": ("--problem", str, None, "problem id, optionally 'id:key=val,...'"),
    "optimizer": (
        "--optimizer", str, "came", f"one of {', '.join(VARIANTS)} (comma list for compare)"
    ),
    "steps": ("--steps", int, 1000, "number of optimization steps"),
    "seed": ("--seed", int, 0, "integer seed (PCG64 stream)"),
    "seeds": ("--seeds", str, "0", "comma-separated seeds for compare"),
    "threshold": ("--threshold", float, None, "loss threshold for steps-to-threshold"),
    "out": ("--out", str, None, "output path prefix"),
    "lr": ("--lr", float, _CFG_DEFAULTS.lr, "learning rate"),
    "beta1": ("--beta1", float, _CFG_DEFAULTS.beta1, "momentum decay"),
    "beta2": ("--beta2", float, _CFG_DEFAULTS.beta2, "second-moment decay"),
    "beta3": ("--beta3", float, _CFG_DEFAULTS.beta3, "instability decay (came)"),
    "eps1": ("--eps1", float, _CFG_DEFAULTS.eps1, "second-moment regularizer"),
    "eps2": ("--eps2", float, _CFG_DEFAULTS.eps2, "instability regularizer (came)"),
    "eps3": ("--eps3", float, _CFG_DEFAULTS.eps3, "raw-confidence regularizer"),
    "clip_d": ("--clip-d", float, _CFG_DEFAULTS.clip_d, "RMS clip threshold"),
    "warmup": ("--warmup", int, _CFG_DEFAULTS.warmup_steps, "linear warmup steps"),
    "points": ("--points", int, 10, "number of random check points"),
    "tolerance": ("--tolerance", float, 1e-6, "max allowed relative gradient error"),
    "manifest": ("--manifest", str, "bert-large", "bundled manifest name or file path"),
    "baseline": ("--baseline", str, "adam", "baseline optimizer for ratios"),
    "scale": ("--scale", int, 1, "integer factor applied to every manifest dim"),
    "width": ("--width", int, 4, "bytes per state element"),
}

# The OptimizerConfig options; each name is its config field, except as renamed here.
_HYPER = ("lr", "beta1", "beta2", "beta3", "eps1", "eps2", "eps3", "clip_d", "warmup")
_HYPER_FIELD = {"warmup": "warmup_steps"}


def _load_config_file(path: str, allowed: Sequence[str]) -> Dict[str, object]:
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                got = raw.rstrip()
                raise InvalidConfig("config", f"{path}:{lineno}: expected 'key = value', got {got!r}")
            key = key.strip()
            value = value.strip()
            if key not in allowed:
                raise InvalidConfig(key, f"unknown config key at {path}:{lineno}")
            if key in values:
                raise InvalidConfig(key, f"given twice at {path}:{lineno}")
            values[key] = _parse_option(key, value, f" at {path}:{lineno}")
    return values


def _parse_option(name: str, text: str, where: str = "") -> object:
    # flags and config files share the parsers, and a bad value names its option
    try:
        return _OPTIONS[name][1](text)
    except InvalidConfig:
        raise
    except ValueError as exc:
        raise InvalidConfig(name, f"bad value{where}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    _, _, _, names, defaults = _COMMANDS[args.command]
    merged = {name: _OPTIONS[name][2] for name in names}
    merged.update(defaults)
    if args.config:
        try:
            merged.update(_load_config_file(args.config, names))
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig("config", str(exc)) from exc
    for name in names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = _parse_option(name, flag_value)
    return merged


def _optimizer_config(opts: Dict[str, object]) -> OptimizerConfig:
    try:
        return OptimizerConfig(**{_HYPER_FIELD.get(name, name): opts[name] for name in _HYPER})
    except InvalidConfig as exc:
        # a renamed field is reported under the option the user set
        option = {field: name for name, field in _HYPER_FIELD.items()}.get(exc.field, exc.field)
        raise InvalidConfig(option, str(exc).partition(": ")[2]) from exc


def _require(opts: Dict[str, object], name: str) -> object:
    if opts.get(name) in (None, ""):
        raise InvalidConfig(name, "required but not set")
    return opts[name]


def _cmd_run(opts: Dict[str, object]) -> int:
    problem_name, problem_args = _parse_problem_spec(_require(opts, "problem"))
    config = RunConfig(
        problem=problem_name,
        problem_args=problem_args,
        optimizer=str(opts["optimizer"]),
        steps=int(opts["steps"]),
        seed=int(opts["seed"]),
        opt=_optimizer_config(opts),
        threshold=opts["threshold"],
    )
    out_prefix = str(_require(opts, "out"))
    result = run(config)
    thr = result.steps_to_threshold
    print(
        f"final_loss={result.final_loss!r} best_loss={result.best_loss!r} "
        f"steps_to_threshold={'-' if thr is None else thr} "
        f"state_elements={result.state_elements} total_wall_ms={result.total_wall_ms!r}"
    )
    _write_outputs(write_run_outputs, result, out_prefix)
    return 0


def _cmd_compare(opts: Dict[str, object]) -> int:
    problem_name, problem_args = _parse_problem_spec(_require(opts, "problem"))
    optimizers = [o.strip() for o in str(opts["optimizer"]).split(",") if o.strip()]
    seeds = _parse_seeds(str(opts["seeds"]))
    opt_cfg = _optimizer_config(opts)
    configs = [
        RunConfig(
            problem=problem_name,
            problem_args=problem_args,
            optimizer=name,
            steps=int(opts["steps"]),
            opt=opt_cfg,
            threshold=opts["threshold"],
        )
        for name in optimizers
    ]
    result = compare(configs, seeds)
    print(result.table())
    if opts["out"]:
        _write_outputs(write_compare_outputs, result, str(opts["out"]))
    return 0


def _cmd_grad_check(opts: Dict[str, object]) -> int:
    problem_name, problem_args = _parse_problem_spec(_require(opts, "problem"))
    problem = build_problem(problem_name, problem_args)
    rep = gradient_report(
        problem,
        points=int(opts["points"]),
        tolerance=float(opts["tolerance"]),
        seed=int(opts["seed"]),
    )
    for line in rep.lines():
        print(line)
    if not rep.passed:
        _emit_error(f"gradient check failed for {rep.problem}", parameters=list(rep.failing))
        return 1
    return 0


def _cmd_memory(opts: Dict[str, object]) -> int:
    name, baseline = str(opts["manifest"]), str(opts["baseline"])
    width, scale = int(opts["width"]), int(opts["scale"])
    for field, value in (("width", width), ("scale", scale)):
        if value < 1:
            raise InvalidConfig(field, f"must be a positive integer, got {value}")
    if baseline not in MEMORY_OPTIMIZERS:
        raise InvalidConfig("baseline", f"expected one of {MEMORY_OPTIMIZERS}, got {baseline!r}")
    load = bundled_manifest if name in _BUNDLED else load_manifest
    try:
        manifest = load(name, element_width_bytes=width)
    except (OSError, ValueError) as exc:
        raise InvalidConfig("manifest", str(exc)) from exc
    if scale != 1:
        manifest = scale_manifest(manifest, scale)
    rep = report(manifest, baseline=baseline)
    print(render_table(rep))
    if opts["out"]:
        _write_outputs(write_outputs, str(opts["out"]), [("report", "_memory.json", [rep.to_json()])])
    return 0


def _write_outputs(write: Callable[..., Dict[str, str]], *args) -> None:
    try:
        paths = write(*args)
    except OSError as exc:  # a path under --out that cannot be written
        raise InvalidConfig("out", str(exc)) from exc
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")


def _emit_error(message: str, field: Optional[str] = None, **extra) -> None:
    payload: Dict[str, object] = {"message": message}
    if field is not None:
        payload["field"] = field
    payload.update(extra)
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)


# Each subcommand: (handler, help, epilog, its options in help order, its own
# defaults). The option names are also its config-file keys.
_COMMANDS: Dict[str, tuple] = {
    "run": (
        _cmd_run,
        "train one problem with one optimizer, writing trace, summary and timing files",
        f"problems: {', '.join(sorted(PROBLEM_BUILDERS))}. {CONFIG_HELP}",
        ("problem", "optimizer", "steps", "seed", "threshold", "out", *_HYPER),
        {},
    ),
    "compare": (
        _cmd_compare,
        "run several optimizers over the same problem and seeds",
        "set CAME_OPT_THREADS>1 to run (optimizer, seed) pairs in parallel. " + CONFIG_HELP,
        ("problem", "optimizer", "steps", "seeds", "threshold", "out", *_HYPER),
        {"optimizer": "came,adafactor"},
    ),
    "grad-check": (
        _cmd_grad_check,
        "compare analytic gradients against central finite differences",
        None,
        ("problem", "points", "tolerance", "seed"),
        {"seed": 2024},
    ),
    "memory": (
        _cmd_memory,
        "render the optimizer-state memory report for a shape manifest",
        None,
        ("manifest", "baseline", "scale", "width", "out"),
        {},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="came-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, epilog, names, _) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text, epilog=epilog)
        for name in names:
            # every value stays a string here and is parsed in _resolve
            flag, _, _, option_help = _OPTIONS[name]
            p_cmd.add_argument(flag, dest=name, default=None, help=option_help)
        p_cmd.add_argument("--config", type=str, default=None, help=CONFIG_HELP)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(_resolve(args))
    except InvalidConfig as exc:
        _emit_error(str(exc), field=exc.field)
        return 1
    except (ValueError, OSError) as exc:
        _emit_error(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
