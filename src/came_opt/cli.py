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
from typing import Dict, List, Optional, Sequence, Tuple

from .memory_model import load_manifest, render_table, report, scale_manifest
from .optimizers import VARIANTS, InvalidConfig, OptimizerConfig
from .problems import PROBLEM_BUILDERS, build_problem, gradient_report
from .runner import (
    COMPARE_OUTPUTS,
    RUN_OUTPUTS,
    RunConfig,
    check_outputs,
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
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidConfig("seeds", f"expected comma-separated integers, got {text!r}") from exc


def _parse_problem_spec(text: str) -> Optional[Tuple[str, Dict[str, object]]]:
    """'name' or 'name:key=value,key=value' with numeric values; '' leaves it unset."""
    if not text:
        return None
    name, _, tail = text.partition(":")
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


# Every option: name -> (parser from string, help). The name is also the
# config-file key, and its flag is "--" + name with dashes for underscores.
# An option set nowhere is not passed on, so the library's default applies.
_OPTIONS: Dict[str, tuple] = {
    "problem": (_parse_problem_spec, "problem id, optionally 'id:key=val,...'"),
    "optimizer": (str, f"one of {', '.join(VARIANTS)} (comma list for compare)"),
    "steps": (int, "number of optimization steps"),
    "seed": (int, "integer seed (PCG64 stream)"),
    "seeds": (_parse_seeds, "comma-separated seeds for compare"),
    "threshold": (float, "loss threshold for steps-to-threshold"),
    "out": (str, "output path prefix"),
    "lr": (float, "learning rate"),
    "beta1": (float, "momentum decay"),
    "beta2": (float, "second-moment decay"),
    "beta3": (float, "instability decay (came)"),
    "eps1": (float, "second-moment regularizer"),
    "eps2": (float, "instability regularizer (came)"),
    "eps3": (float, "raw-confidence regularizer"),
    "clip_d": (float, "RMS clip threshold"),
    "warmup": (int, "linear warmup steps"),
    "points": (int, "number of random check points"),
    "tolerance": (float, "max allowed relative gradient error"),
    "manifest": (str, "bundled manifest name or file path"),
    "baseline": (str, "baseline optimizer for ratios"),
    "scale": (int, "integer factor applied to every manifest dim"),
    "width": (int, "bytes per state element"),
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
        return _OPTIONS[name][0](text)
    except InvalidConfig:
        raise
    except ValueError as exc:
        raise InvalidConfig(name, f"bad value{where}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """The parsed options set by flag, config file or the command's own defaults."""
    _, _, _, names, defaults = _COMMANDS[args.command]
    merged = dict(defaults)
    if args.config:
        try:
            merged.update(_load_config_file(args.config, names))
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig("config", str(exc)) from exc
    for name in names:
        flag_value = getattr(args, name)
        if flag_value is not None:
            merged[name] = _parse_option(name, flag_value)
    return merged


def _given(opts: Dict[str, object], *names: str) -> Dict[str, object]:
    """The named options that are set; a library call's own defaults fill the rest."""
    return {name: opts[name] for name in names if name in opts}


def _optimizer_config(opts: Dict[str, object]) -> OptimizerConfig:
    fields = {_HYPER_FIELD.get(name, name): value for name, value in _given(opts, *_HYPER).items()}
    try:
        return OptimizerConfig(**fields)
    except InvalidConfig as exc:
        # a renamed field is reported under the option the user set
        option = {field: name for name, field in _HYPER_FIELD.items()}.get(exc.field, exc.field)
        raise InvalidConfig(option, str(exc).partition(": ")[2]) from exc


def _require(opts: Dict[str, object], name: str) -> object:
    if opts.get(name) in (None, ""):
        raise InvalidConfig(name, "required but not set")
    return opts[name]


def _run_configs(opts: Dict[str, object], optimizers: Sequence[str]) -> List[RunConfig]:
    """One RunConfig per optimizer name, all from the same options."""
    problem, problem_args = _require(opts, "problem")
    opt = _optimizer_config(opts)
    given = _given(opts, "steps", "seed", "threshold")  # steps: a command default, always set
    return [
        RunConfig(problem=problem, optimizer=name, problem_args=problem_args, opt=opt, **given)
        for name in optimizers
    ]


def _cmd_run(opts: Dict[str, object]) -> int:
    (config,) = _run_configs(opts, [opts["optimizer"]])
    out_prefix = _require(opts, "out")
    check_outputs(out_prefix, RUN_OUTPUTS)
    result = run(config)
    thr = result.steps_to_threshold
    print(
        f"final_loss={result.final_loss!r} best_loss={result.best_loss!r} "
        f"steps_to_threshold={'-' if thr is None else thr} "
        f"state_elements={result.state_elements} total_wall_ms={result.total_wall_ms!r}"
    )
    _print_written(write_run_outputs(result, out_prefix))
    return 0


def _cmd_compare(opts: Dict[str, object]) -> int:
    configs = _run_configs(opts, [o.strip() for o in opts["optimizer"].split(",") if o.strip()])
    if opts.get("out"):
        check_outputs(opts["out"], COMPARE_OUTPUTS)
    result = compare(configs, opts["seeds"])
    print(result.table())
    if opts.get("out"):
        _print_written(write_compare_outputs(result, opts["out"]))
    return 0


def _cmd_grad_check(opts: Dict[str, object]) -> int:
    problem = build_problem(*_require(opts, "problem"))
    rep = gradient_report(problem, **_given(opts, "points", "tolerance", "seed"))
    for line in rep.lines():
        print(line)
    if not rep.passed:
        _emit_error(f"gradient check failed for {rep.problem}", parameters=list(rep.failing))
        return 1
    return 0


def _cmd_memory(opts: Dict[str, object]) -> int:
    outputs = {"report": "_memory.json"}
    if opts.get("out"):
        check_outputs(opts["out"], outputs)
    try:
        manifest = load_manifest(**_given(opts, "manifest"))
    except (OSError, ValueError) as exc:
        raise InvalidConfig("manifest", str(exc)) from exc
    rep = report(scale_manifest(manifest, opts["scale"]), **_given(opts, "baseline", "width"))
    print(render_table(rep))
    if opts.get("out"):
        _print_written(write_outputs(opts["out"], outputs, {"report": [rep.to_json()]}))
    return 0


def _print_written(paths: Dict[str, str]) -> None:
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")


def _emit_error(message: str, field: Optional[str] = None, **extra) -> None:
    payload: Dict[str, object] = {"message": message}
    if field is not None:
        payload["field"] = field
    payload.update(extra)
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)


# Each subcommand: (handler, help, epilog, its options in help order, its own
# parsed defaults, for the options no library call defaults).
_COMMANDS: Dict[str, tuple] = {
    "run": (
        _cmd_run,
        "train one problem with one optimizer, writing trace, summary and timing files",
        f"problems: {', '.join(sorted(PROBLEM_BUILDERS))}. {CONFIG_HELP}",
        ("problem", "optimizer", "steps", "seed", "threshold", "out", *_HYPER),
        {"optimizer": "came", "steps": 1000},
    ),
    "compare": (
        _cmd_compare,
        "run several optimizers over the same problem and seeds",
        CONFIG_HELP,
        ("problem", "optimizer", "steps", "seeds", "threshold", "out", *_HYPER),
        {"optimizer": "came,adafactor", "steps": 1000, "seeds": [0]},
    ),
    "grad-check": (
        _cmd_grad_check,
        "compare analytic gradients against central finite differences",
        None,
        ("problem", "points", "tolerance", "seed"),
        {},
    ),
    "memory": (
        _cmd_memory,
        "render the optimizer-state memory report for a shape manifest",
        None,
        ("manifest", "baseline", "scale", "width", "out"),
        {"scale": 1},
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
            p_cmd.add_argument("--" + name.replace("_", "-"), help=_OPTIONS[name][1])
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
