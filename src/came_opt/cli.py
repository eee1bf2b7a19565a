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
    atomic_write_text,
    compare,
    run,
    write_compare_outputs,
    write_run_outputs,
)

CONFIG_HELP = (
    "config file: flat 'key = value' lines, '#' comments; keys are the long "
    "flag names with underscores (e.g. clip_d, strict_determinism); "
    "precedence is flags > file > defaults"
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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
    "strict_determinism": (
        "--strict-determinism",
        _parse_bool,
        False,
        "omit wall-clock timing from trace and summary (sidecar CSV instead) "
        "so outputs are byte-identical across reruns",
    ),
    "points": ("--points", int, 10, "number of random check points"),
    "tolerance": ("--tolerance", float, 1e-6, "max allowed relative gradient error"),
    "manifest": ("--manifest", str, "bert-large", "bundled manifest name or file path"),
    "baseline": ("--baseline", str, "adam", "baseline optimizer for ratios"),
    "scale": ("--scale", int, 1, "integer factor applied to every manifest dim"),
    "width": ("--width", int, 4, "bytes per state element"),
}

_HYPER = ("lr", "beta1", "beta2", "beta3", "eps1", "eps2", "eps3", "clip_d", "warmup")

# The options each subcommand takes, in help order, and its own defaults.
_COMMAND_OPTS: Dict[str, tuple] = {
    "run": ("problem", "optimizer", "steps", "seed", "threshold", "out", *_HYPER,
            "strict_determinism"),
    "compare": ("problem", "optimizer", "steps", "seeds", "threshold", "out", *_HYPER),
    "grad-check": ("problem", "points", "tolerance", "seed"),
    "memory": ("manifest", "baseline", "scale", "width", "out"),
}
_COMMAND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "compare": {"optimizer": "came,adafactor"},
    "grad-check": {"seed": 2024},
}


def _load_config_file(path: str, allowed: Sequence[str]) -> Dict[str, object]:
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key = key.strip()
            value = value.strip()
            if key not in allowed:
                raise InvalidConfig(key, f"unknown config key at {path}:{lineno}")
            parse = _OPTIONS[key][1]
            try:
                values[key] = parse(value)
            except InvalidConfig:
                raise
            except ValueError as exc:
                raise InvalidConfig(key, f"bad value at {path}:{lineno}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, command: str) -> Dict[str, object]:
    names = _COMMAND_OPTS[command]
    merged = {name: _OPTIONS[name][2] for name in names}
    merged.update(_COMMAND_DEFAULTS.get(command, {}))
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config, names))
    for name in names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    return merged


def _optimizer_config(opts: Dict[str, object]) -> OptimizerConfig:
    return OptimizerConfig(
        lr=opts["lr"],
        beta1=opts["beta1"],
        beta2=opts["beta2"],
        beta3=opts["beta3"],
        eps1=opts["eps1"],
        eps2=opts["eps2"],
        eps3=opts["eps3"],
        clip_d=opts["clip_d"],
        warmup_steps=opts["warmup"],
    ).validate()


def _require(opts: Dict[str, object], name: str) -> object:
    if opts.get(name) in (None, ""):
        raise InvalidConfig(name, "required but not set")
    return opts[name]


def _cmd_run(args: argparse.Namespace) -> int:
    opts = _resolve(args, "run")
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
    paths = write_run_outputs(result, out_prefix, strict=bool(opts["strict_determinism"]))
    thr = result.steps_to_threshold
    print(
        f"final_loss={result.final_loss!r} best_loss={result.best_loss!r} "
        f"steps_to_threshold={'-' if thr is None else thr} "
        f"state_elements={result.state_elements}"
    )
    for kind in ("trace", "summary", "timing"):
        if kind in paths:
            print(f"wrote {kind}: {paths[kind]}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    opts = _resolve(args, "compare")
    problem_name, problem_args = _parse_problem_spec(_require(opts, "problem"))
    optimizers = [o.strip() for o in str(opts["optimizer"]).split(",") if o.strip()]
    if not optimizers:
        raise InvalidConfig("optimizer", "expected a comma-separated optimizer list")
    seeds = _parse_seeds(str(opts["seeds"]))
    if not seeds:
        raise InvalidConfig("seeds", "expected at least one seed")
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
        paths = write_compare_outputs(result, str(opts["out"]))
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    return 0


def _cmd_grad_check(args: argparse.Namespace) -> int:
    opts = _resolve(args, "grad-check")
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


def _cmd_memory(args: argparse.Namespace) -> int:
    opts = _resolve(args, "memory")
    name = str(opts["manifest"])
    width = int(opts["width"])
    try:
        manifest = bundled_manifest(name, element_width_bytes=width)
    except ValueError:
        manifest = load_manifest(name, element_width_bytes=width)
    if int(opts["scale"]) != 1:
        manifest = scale_manifest(manifest, int(opts["scale"]))
    rep = report(manifest, baseline=str(opts["baseline"]))
    print(render_table(rep))
    if opts["out"]:
        path = f"{opts['out']}_memory.json"
        atomic_write_text(path, rep.to_json() + "\n")
        print(f"wrote report: {path}")
    return 0


def _emit_error(message: str, field: Optional[str] = None, **extra) -> None:
    payload: Dict[str, object] = {"message": message}
    if field is not None:
        payload["field"] = field
    payload.update(extra)
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_OPTS[command]:
        flag, parse, _, help_text = _OPTIONS[name]
        if parse is _parse_bool:
            parser.add_argument(
                flag, dest=name, action="store_const", const=True, default=None, help=help_text
            )
        else:
            parser.add_argument(flag, dest=name, type=parse, default=None, help=help_text)
    parser.add_argument("--config", type=str, default=None, help=CONFIG_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="came-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="train one problem with one optimizer, writing a trace CSV and summary JSON",
        epilog=f"problems: {', '.join(sorted(PROBLEM_BUILDERS))}. {CONFIG_HELP}",
    )
    _add_flags(p_run, "run")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare",
        help="run several optimizers over the same problem and seeds",
        epilog="set CAME_OPT_THREADS>1 to run (optimizer, seed) pairs in parallel. "
        + CONFIG_HELP,
    )
    _add_flags(p_cmp, "compare")
    p_cmp.set_defaults(func=_cmd_compare)

    p_grad = sub.add_parser(
        "grad-check",
        help="compare analytic gradients against central finite differences",
    )
    _add_flags(p_grad, "grad-check")
    p_grad.set_defaults(func=_cmd_grad_check)

    p_mem = sub.add_parser(
        "memory",
        help="render the optimizer-state memory report for a shape manifest",
    )
    _add_flags(p_mem, "memory")
    p_mem.set_defaults(func=_cmd_memory)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        return handler(args)
    except InvalidConfig as exc:
        _emit_error(str(exc), field=exc.field)
        return 1
    except (ValueError, OSError) as exc:
        _emit_error(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
