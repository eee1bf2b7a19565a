import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

from came_opt import runner as runner_module
from came_opt.cli import _HYPER, _HYPER_FIELD, _optimizer_config, main
from came_opt.optimizers import OptimizerConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_error(err):
    return json.loads(err.strip().splitlines()[-1])["error"]


def test_run_writes_trace_and_summary(tmp_path, capsys):
    out = str(tmp_path / "q")
    code, stdout, _ = run_cli(
        capsys,
        "run", "--problem", "quadratic:dim=4", "--optimizer", "adam",
        "--steps", "25", "--lr", "0.01", "--seed", "2", "--out", out,
    )
    assert code == 0
    assert "final_loss=" in stdout and "total_wall_ms=" in stdout
    trace = Path(out + "_trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,grad_rms,update_rms,lr"
    assert len(trace) == 26
    summary = json.loads(Path(out + "_summary.json").read_text())
    assert summary["optimizer"] == "adam"
    assert summary["problem_args"] == {"dim": 4}
    assert summary["steps"] == 25
    assert "total_wall_ms" not in summary
    timing = Path(out + "_timing.csv").read_text().splitlines()
    assert timing[0] == "step,elapsed_ms"
    assert len(timing) == 26


def test_run_strict_mode_is_byte_identical(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        code, _, _ = run_cli(
            capsys,
            "run", "--problem", "mlp1", "--optimizer", "came", "--steps", "10",
            "--seed", "7", "--out", out,
        )
        assert code == 0
        blobs.append(
            (
                Path(out + "_trace.csv").read_bytes(),
                Path(out + "_summary.json").read_bytes(),
            )
        )
        header = Path(out + "_trace.csv").read_text().splitlines()[0]
        assert header == "step,loss,grad_rms,update_rms,lr"
        timing = Path(out + "_timing.csv").read_text().splitlines()
        assert timing[0] == "step,elapsed_ms"
    assert blobs[0] == blobs[1]


def test_run_prints_plain_floats(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "run", "--problem", "rosenbrock", "--steps", "5", "--seed", "1",
        "--out", str(tmp_path / "rb"),
    )
    assert code == 0
    assert "np.float64" not in stdout


def test_strict_determinism_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "rosenbrock", "--out", str(tmp_path / "x"),
              "--strict-determinism"])
    assert exc.value.code == 2
    cfg = tmp_path / "old.cfg"
    cfg.write_text("strict_determinism = true\n")
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--problem", "rosenbrock",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert read_error(err)["field"] == "strict_determinism"
    assert not (tmp_path / "x_trace.csv").exists()


def test_unknown_problem_emits_error_json(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--problem", "nope", "--out", str(tmp_path / "x")
    )
    assert code == 1
    payload = read_error(err)
    assert "unknown problem" in payload["message"]


def test_diverged_run_exits_1_with_error_json(tmp_path, capsys, monkeypatch):
    # a loss that overflows while the gradient stays finite
    build = runner_module.build_problem
    monkeypatch.setattr(
        runner_module,
        "build_problem",
        lambda name, args: dataclasses.replace(build(name, args), loss=lambda params: math.inf),
    )
    code, _, err = run_cli(
        capsys, "run", "--problem", "quadratic:dim=4", "--out", str(tmp_path / "d")
    )
    assert code == 1
    assert "loss is inf at step 1" in read_error(err)["message"]
    assert not (tmp_path / "d_trace.csv").exists()


def test_invalid_hyperparameter_names_field(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "run", "--problem", "quadratic", "--lr", "0", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert read_error(err)["field"] == "lr"


@pytest.mark.parametrize(
    "flag,value",
    [("--lr", "inf"), ("--eps1", "inf"), ("--eps1", "nan"), ("--eps2", "nan"),
     ("--threshold", "nan")],
)
def test_non_finite_option_names_field_before_running(tmp_path, capsys, flag, value):
    out = str(tmp_path / "x")
    code, _, err = run_cli(
        capsys,
        "run", "--problem", "quadratic:dim=4", "--optimizer", "came", "--steps", "3",
        "--out", out, flag, value,
    )
    assert code == 1
    assert read_error(err)["field"] == flag[2:]
    assert not os.path.exists(out + "_trace.csv")


@pytest.mark.parametrize(
    "argv,field",
    [
        (("--seed", "-1"), "seed"),
        (("--problem", "mlp1:seed=1.9"), "seed"),
        (("--problem", "mlp1:seed=-1"), "seed"),
    ],
)
def test_bad_seed_names_field(tmp_path, capsys, argv, field):
    out = str(tmp_path / "x")
    code, _, err = run_cli(
        capsys, "run", "--problem", "quadratic", "--steps", "3", "--out", out, *argv
    )
    assert code == 1
    assert read_error(err)["field"] == field
    assert not os.path.exists(out + "_trace.csv")


@pytest.mark.parametrize("key,value", [("seed", "1.9"), ("steps", "2.5"), ("steps", "inf")])
def test_non_integer_seed_or_steps_names_field(tmp_path, capsys, key, value):
    # a flag and a config file both give the JSON error naming the field
    out = str(tmp_path / "x")
    code, _, err = run_cli(capsys, "run", "--problem", "quadratic", "--out", out, f"--{key}", value)
    assert code == 1
    assert read_error(err)["field"] == key
    assert not os.path.exists(out + "_trace.csv")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--problem", "quadratic", "--out", out
    )
    assert code == 1
    assert read_error(err)["field"] == key
    assert not os.path.exists(out + "_trace.csv")


@pytest.mark.parametrize(
    "problem,argv,field",
    [
        ("quadratic", ("--warmup", "-1"), "warmup"),
        ("quadratic:dim=2.5", (), "problem"),
        ("mlp1:in_dim=2.0", (), "problem"),
        ("quadratic:wrong_kwarg=1", (), "problem"),
        ("nope", (), "problem"),
        ("quadratic", ("--config", "/no/such/run.cfg"), "config"),
    ],
    ids=["warmup", "float-dim", "float-in-dim", "unknown-arg", "unknown-problem",
         "missing-config"],
)
def test_input_error_names_the_option_set(tmp_path, capsys, problem, argv, field):
    # a builder's own InvalidConfig ("seed") is test_bad_seed_names_field's case,
    # a missing manifest test_memory_cli_missing_file's
    out = str(tmp_path / "x")
    code, _, err = run_cli(capsys, "run", "--problem", problem, "--out", out, *argv)
    assert code == 1
    assert read_error(err)["field"] == field
    assert not os.path.exists(out + "_trace.csv")


def test_zero_steps_names_field(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "run", "--problem", "quadratic", "--steps", "0", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert read_error(err)["field"] == "steps"


def test_missing_out_is_reported(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "quadratic")
    assert code == 1
    assert read_error(err)["field"] == "out"


# each command's arguments, and the first file it writes under --out
OUT_COMMANDS = {
    "run": (("run", "--problem", "rosenbrock", "--steps", "3"), "_trace.csv"),
    "compare": (("compare", "--problem", "rosenbrock", "--steps", "3"), "_compare.csv"),
    "memory": (("memory",), "_memory.json"),
}


@pytest.mark.parametrize("blocked", ["prefix-under-a-file", "output-is-a-directory"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_out_names_the_option_and_leaves_no_temp_file(
    tmp_path, capsys, command, blocked
):
    argv, first_output = OUT_COMMANDS[command]
    if blocked == "prefix-under-a-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
    else:
        out = tmp_path / "x"
        Path(f"{out}{first_output}").mkdir()
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert read_error(err)["field"] == "out"
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_bad_problem_spec_reported(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "run", "--problem", "quadratic:dim=four", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert read_error(err)["field"] == "problem"


def test_repeated_problem_argument_reported(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "run", "--problem", "quadratic:dim=4,dim=5", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    payload = read_error(err)
    assert payload["field"] == "problem" and "'dim'" in payload["message"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "problem = quadratic:dim=3\n"
        "optimizer = adafactor\n"
        "steps = 7\n"
        "lr = 0.5\n"
    )
    out = str(tmp_path / "c")
    code, _, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--lr", "0.25", "--out", out
    )
    assert code == 0
    summary = json.loads(Path(out + "_summary.json").read_text())
    assert summary["optimizer"] == "adafactor"  # from file
    assert summary["steps"] == 7  # from file
    assert summary["optimizer_config"]["lr"] == 0.25  # flag beats file
    assert summary["optimizer_config"]["beta2"] == 0.999  # default fills the rest


def test_config_file_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("lr = 0.1\n# a later line must not win silently\nlr = 0.2\n")
    out = str(tmp_path / "x")
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--problem", "quadratic", "--out", out
    )
    assert code == 1
    payload = read_error(err)
    assert payload["field"] == "lr"
    assert payload["message"] == f"lr: given twice at {cfg}:3"
    assert not os.path.exists(out + "_trace.csv")


@pytest.mark.parametrize(
    "content", [b"steps 7\n", b"lr = 0.1\n\xff\xfe\n"], ids=["no-equals", "not-utf8"]
)
def test_malformed_config_file_names_config(tmp_path, capsys, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    out = str(tmp_path / "x")
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--problem", "quadratic", "--out", out
    )
    assert code == 1
    assert read_error(err)["field"] == "config"
    assert not os.path.exists(out + "_trace.csv")


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stepz = 7\n")
    code, _, err = run_cli(
        capsys, "run", "--config", str(cfg), "--problem", "quadratic",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert read_error(err)["field"] == "stepz"


def test_compare_cli_writes_columns(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code, stdout, _ = run_cli(
        capsys,
        "compare", "--problem", "quadratic:dim=3", "--optimizer", "came,adafactor",
        "--steps", "30", "--lr", "0.01", "--seeds", "1,2", "--out", out,
    )
    assert code == 0
    assert "median final loss" in stdout
    lines = Path(out + "_compare.csv").read_text().splitlines()
    assert lines[0] == "step,came,adafactor"
    assert len(lines) == 31
    payload = json.loads(Path(out + "_compare.json").read_text())
    assert set(payload["optimizers"]) == {"came", "adafactor"}
    assert payload["seeds"] == [1, 2]


def test_compare_cli_bad_seeds(capsys):
    for seeds in ("1,x", "-1", "0,-1"):
        code, _, err = run_cli(capsys, "compare", "--problem", "quadratic", "--seeds", seeds)
        assert code == 1
        assert read_error(err)["field"] == "seeds"


def test_compare_cli_rejects_duplicate_seeds(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--problem", "quadratic", "--steps", "5", "--seeds", "1,1,2"
    )
    assert code == 1
    payload = read_error(err)
    assert payload["field"] == "seeds" and "distinct" in payload["message"]


@pytest.mark.parametrize("flag,field", [("--seeds", "seeds"), ("--optimizer", "optimizer")])
def test_compare_cli_empty_list_names_field(capsys, flag, field):
    code, _, err = run_cli(capsys, "compare", "--problem", "quadratic", flag, ",")
    assert code == 1
    assert read_error(err)["field"] == field


def test_every_hyperparameter_option_sets_its_config_field():
    fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
    assert {_HYPER_FIELD.get(name, name) for name in _HYPER} <= fields
    # distinct valid values, so an option wired to the wrong field shows
    values = dict(lr=0.5, beta1=0.11, beta2=0.12, beta3=0.13, eps1=0.01, eps2=0.02, eps3=0.03)
    opts = {**values, "clip_d": 2.5, "warmup": 7}
    assert _optimizer_config(opts) == OptimizerConfig(**values, clip_d=2.5, warmup_steps=7)


def test_grad_check_cli_passes(capsys):
    code, stdout, _ = run_cli(
        capsys, "grad-check", "--problem", "rosenbrock", "--tolerance", "1e-8"
    )
    assert code == 0
    assert stdout.startswith("PASS")


def test_grad_check_cli_fails_on_absurd_tolerance(capsys):
    code, stdout, err = run_cli(
        capsys, "grad-check", "--problem", "mlp1", "--points", "2",
        "--tolerance", "1e-18",
    )
    assert code == 1
    assert "FAIL" in stdout
    payload = read_error(err)
    assert payload["parameters"]


@pytest.mark.parametrize(
    "flag,value",
    [("--tolerance", "nan"), ("--tolerance", "0"), ("--tolerance", "-1"), ("--points", "0")],
)
def test_grad_check_cli_rejects_bad_points_and_tolerance(capsys, flag, value):
    # an input error names its flag; it is not reported as a failed check
    code, stdout, err = run_cli(capsys, "grad-check", "--problem", "quadratic", flag, value)
    assert code == 1
    assert "FAIL" not in stdout
    assert read_error(err)["field"] == flag[2:]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_condition_number_reported(tmp_path, capsys, value):
    code, _, err = run_cli(
        capsys,
        "run", "--problem", f"quadratic:condition_number={value}", "--steps", "3",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "condition_number" in read_error(err)["message"]
    assert not (tmp_path / "x_trace.csv").exists()


def test_memory_cli_bundled_and_file(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "memory")
    assert code == 0
    assert "came" in stdout and "vs adam" in stdout

    manifest = tmp_path / "tiny.txt"
    manifest.write_text("w 64 32\nb 32\n")
    out = str(tmp_path / "mem")
    code, stdout, _ = run_cli(
        capsys, "memory", "--manifest", str(manifest), "--baseline", "adafactor",
        "--scale", "2", "--out", out,
    )
    assert code == 0
    payload = json.loads(Path(out + "_memory.json").read_text())
    assert payload["baseline"] == "adafactor"
    assert payload["totals"]["adam"] == 2 * (128 * 64 + 64)


def test_memory_cli_missing_file(capsys):
    code, _, err = run_cli(capsys, "memory", "--manifest", "/no/such/file.txt")
    assert code == 1
    payload = read_error(err)
    assert payload["field"] == "manifest" and "No such file" in payload["message"]


def test_memory_cli_malformed_manifest_names_field(tmp_path, capsys):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("w1 64 x\n")
    code, _, err = run_cli(capsys, "memory", "--manifest", str(manifest))
    assert code == 1
    payload = read_error(err)
    assert payload["field"] == "manifest" and "bad dimension" in payload["message"]


def test_memory_cli_validates_width_scale_and_baseline(capsys):
    for argv, field in (
        (("--width", "0"), "width"),
        (("--width", "-4"), "width"),
        (("--scale", "0"), "scale"),
        (("--baseline", "sgd"), "baseline"),
        (("--manifest", "bert-large", "--baseline", "nope", "--width", "2"), "baseline"),
    ):
        code, _, err = run_cli(capsys, "memory", *argv)
        assert code == 1
        payload = read_error(err)
        assert payload["field"] == field
        assert "No such file" not in payload["message"]
    code, stdout, _ = run_cli(capsys, "memory", "--width", "2", "--baseline", "came")
    assert code == 0
    assert "state element width 2 B" in stdout and "vs came" in stdout
