"""End-to-end command-line runs in-process: exit codes, files, cross-command
consistency.

simulate twice with one seed must produce byte-identical artifacts; a
one-point sweep must agree with evaluate; predict on a history prefix must
reproduce the streaming harness's next-event probability.
"""

import contextlib
import csv
import io
import json
import math
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ogive import cli
from ogive.calibration import ItemBank
from ogive.concept_graph import load_graph
from ogive.dataio import Dataset, load_interactions, preprocess, write_interactions
from ogive.evaluation import ModelVariant, run_online_evaluation


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One small simulated cohort shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cohort") / "sim"
    code = run_cli(
        "simulate", "--seed", "11", "--students", "30", "--concepts", "3",
        "--items-per-concept", "5", "--responses", "20", "--out", str(out),
    )
    assert code == 0
    return out


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--seed", "4", "--students", "6", "--concepts", "2",
            "--items-per-concept", "3", "--responses", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    for name in ("interactions.csv", "graph.txt", "true_bank.csv", "true_paths.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_outputs_and_run_config(sim_dir):
    scenario = json.loads((sim_dir / "scenario.json").read_text())
    assert scenario["format_version"] == "1"
    rc = scenario["run_config"]
    assert rc["command"] == "simulate"
    assert rc["seed"] == 11 and rc["students"] == 30
    assert scenario["summary"]["n_students"] == 30
    assert scenario["n_items"] == 15
    graph = load_graph(sim_dir / "graph.txt")
    assert graph.concepts == ("c01", "c02", "c03")
    data = load_interactions(sim_dir / "interactions.csv")
    assert data.n_students == 30
    assert data.n_responses == 30 * 20


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("seed: 5\nstudents: 4\nconcepts: 2\n"
                   "items_per_concept: 3\nresponses: '6'\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "9",
                   "--out", str(out)) == 0
    rc = json.loads((out / "scenario.json").read_text())["run_config"]
    assert rc["seed"] == 9        # flag beats config
    assert rc["students"] == 4    # config beats default
    assert rc["concepts"] == 2


def test_unknown_config_key_is_a_user_error(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("studnets: 4\n")
    assert run_cli("simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")) == 2
    assert "unknown config keys: studnets" in capsys.readouterr().err


def test_missing_required_flag(tmp_path, capsys):
    assert run_cli("simulate") == 2
    assert "--out is required" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    from ogive import __version__
    assert __version__ in capsys.readouterr().out


def test_unknown_model_rejected_by_parser(sim_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", "--data", str(sim_dir / "interactions.csv"),
                "--bank", str(sim_dir / "true_bank.csv"), "--model", "rasch")
    assert exc.value.code == 2


def test_bad_clock_is_a_user_error(sim_dir, capsys):
    assert run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
        "--clock", "lunar",
    ) == 2
    assert "--clock" in capsys.readouterr().err


@pytest.mark.parametrize("clock", ["wall:nan", "wall:inf"])
def test_non_finite_clock_unit_is_a_user_error(sim_dir, clock, capsys):
    assert run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        "--model", "tskirt", "--clock", clock,
    ) == 2
    assert "seconds_per_unit must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "evaluate", "sweep", "predict"])
def test_overflowing_wall_clock_is_a_user_error(sim_dir, tmp_path, capsys, command):
    # timestamp / seconds_per_unit past float range would make every elapsed
    # time NaN; it is refused where clock times are formed, naming the unit
    data, bank = str(sim_dir / "interactions.csv"), str(sim_dir / "true_bank.csv")
    graph = ["--graph", str(sim_dir / "graph.txt")]
    inputs = {
        "simulate": ["--students", "2"],
        "evaluate": ["--data", data, "--bank", bank, *graph, "--model", "static_2po",
                     "--model", "tskirt"],
        "sweep": ["--data", data, "--bank", bank, *graph],
        "predict": ["--history", data, "--student", "s0001", "--bank", bank, *graph,
                    "--items", "q0001"],
    }[command]
    assert run_cli(command, *inputs, "--clock", "wall:1e-308",
                   "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert "seconds_per_unit=1e-308 is too small" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, message", [
    ("evaluate", ["--model", "static_2po", "--lambda", "nan"], "lam must be finite"),
    ("evaluate", ["--model", "tskirt", "--nu2", "inf"], "nu2 must be finite"),
    ("evaluate", ["--model", "static_2po", "--solver-tolerance", "inf"],
     "gradient_tolerance must be finite"),
    ("calibrate", ["--delta", "nan"], "convergence_delta must be finite"),
    ("calibrate", ["--floor", "nan"], "discrimination_floor must be finite"),
    ("calibrate", ["--floor", "inf"], "discrimination_floor must be finite"),
    ("simulate", ["--arrival", "exp:nan"], "mean_inter_arrival_seconds must be finite"),
    ("simulate", ["--beta-range=-inf:0"], "difficulty_range must be finite"),
    ("predict", ["--model", "tskirt", "--now", "nan"], "now must be finite"),
    ("predict", ["--model", "spc", "--now", "nan"], "now must be finite"),
    ("predict", ["--model", "spc", "--now", "inf"], "now must be finite"),
])
def test_non_finite_setting_is_a_user_error(sim_dir, tmp_path, capsys, command, flags,
                                            message):
    data, bank = str(sim_dir / "interactions.csv"), str(sim_dir / "true_bank.csv")
    graph = str(sim_dir / "graph.txt")
    inputs = {
        "evaluate": ["--data", data, "--bank", bank, "--graph", graph],
        "calibrate": ["--data", data, "--out", str(tmp_path / "bank.csv")],
        "simulate": ["--students", "2", "--out", str(tmp_path / "sim")],
        "predict": ["--history", data, "--student", "s0001", "--bank", bank,
                    "--graph", graph, "--items", "q0001", "--out", str(tmp_path / "p.json")],
    }[command]
    assert run_cli(command, *inputs, *flags) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, message", [
    ("evaluate", ["--model", "static_2po", "--lambda", "1e308"], "lam=1e+308 is too large"),
    ("evaluate", ["--model", "correlated_mvn", "--gamma", "1e308"],
     "gamma=1e+308 is too large"),
    ("sweep", ["--model", "static_2po", "--lambda-grid", "1,1e308"], "lam=1e+308 is too large"),
])
def test_overflowing_prior_precision_is_a_user_error(sim_dir, tmp_path, capsys, command,
                                                     flags, message):
    assert run_cli(
        command, "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        *flags, "--out", str(tmp_path / "out"),
    ) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("evaluate", ["--model", "temporal_2po", "--nu2", "1e308"]),
    ("evaluate", ["--model", "tskirt", "--nu2", "1e308"]),
    ("sweep", ["--model", "temporal_2po", "--nu2-grid", "0.1,1e308"]),
    ("predict", ["--model", "temporal_2po", "--nu2", "1e308"]),
    ("predict", ["--model", "tskirt", "--nu2", "1e308"]),
])
def test_overflowing_drift_is_a_user_error(sim_dir, tmp_path, capsys, command, flags):
    # nu2 * elapsed * alpha^2 past float range would score every past response
    # at discrimination 0; it is refused once per call, naming nu2
    data, bank = str(sim_dir / "interactions.csv"), str(sim_dir / "true_bank.csv")
    inputs = {
        "evaluate": ["--data", data],
        "sweep": ["--data", data],
        "predict": ["--history", data, "--student", "s0001", "--items", "q0001"],
    }[command]
    assert run_cli(command, *inputs, "--bank", bank, "--graph", str(sim_dir / "graph.txt"),
                   *flags, "--out", str(tmp_path / "out")) == 2
    assert "nu2=1e+308 is too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_finite_drift_still_runs(sim_dir, tmp_path):
    # 20-step streams of discriminations below 2.5: the product stays finite
    assert run_cli("evaluate", "--data", str(sim_dir / "interactions.csv"),
                   "--bank", str(sim_dir / "true_bank.csv"), "--model", "temporal_2po",
                   "--nu2", "1e306", "--out", str(tmp_path / "out")) == 0


def run_setting(sim_dir, tmp_path, capsys, command, setting, form):
    """Run `command` with one `key: value` setting, from a config file or as a flag.

    Returns the exit code, the captured streams and the output path.
    """
    data, bank = str(sim_dir / "interactions.csv"), str(sim_dir / "true_bank.csv")
    out = tmp_path / "out"
    inputs = {
        "simulate": ["--students", "2", "--out", str(out)],
        "calibrate": ["--data", data, "--out", str(out)],
        "evaluate": ["--data", data, "--bank", bank, "--model", "static_2po", "--out", str(out)],
        "sweep": ["--data", data, "--bank", bank, "--model", "static_2po", "--out", str(out)],
        "predict": ["--history", data, "--student", "s0001", "--bank", bank,
                    "--model", "static_2po", "--items", "q0001", "--out", str(out)],
    }[command]
    if form == "flag":
        key, text = setting.split(":", 1)
        setting_args = [f"{cli._flag(key)}={text.strip()}"]  # `=` keeps -2:abc a value
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(setting + "\n")
        setting_args = ["--config", str(cfg)]
    return run_cli(command, *inputs, *setting_args), capsys.readouterr(), out


def both_forms(cases):
    """Each case in its config-file form, under its own id, and again as a flag."""
    return ([pytest.param(*case, "config", id="-".join(case)) for case in cases]
            + [pytest.param(*case, "flag", id="flag-" + "-".join(case)) for case in cases])


@pytest.mark.parametrize("command, setting, form", both_forms([
    ("simulate", "items_per_concept: 2.7"),
    ("calibrate", "max_rounds: .inf"),
    ("evaluate", "buckets: .nan"),
    ("sweep", "solver_max_iterations: 1.5"),
]))
def test_non_integral_config_setting_is_a_user_error(sim_dir, tmp_path, capsys, command,
                                                     setting, form):
    code, captured, out = run_setting(sim_dir, tmp_path, capsys, command, setting, form)
    assert code == 2
    key = setting.split(":")[0]
    assert f"{key} must be an integer" in captured.err
    assert captured.out == ""
    assert not out.exists()


# A flag is text, so where the file holds a typed YAML value (a float, a bool,
# an integer past float range) the flag's message shows the text; 400 digits
# of text read as inf, like 1e400, and fail where the setting is checked.
FLAG_MESSAGES = {
    "responses: 2.7": "responses must be an integer, got '2.7'",
    "floor: true": "floor must be a number, got 'true'",
    "delta: 1" + "0" * 400: "convergence_delta must be finite",
}


@pytest.mark.parametrize("command, setting, message, form", both_forms([
    ("simulate", "responses: 2.7", "responses must be an integer, got 2.7"),
    ("simulate", "lam: abc", "lam must be a number, got 'abc'"),
    ("simulate", "arrival: exp:abc", "arrival exp:<mean_seconds> must be a number"),
    ("simulate", "assignment: blocks:2.5", "assignment blocks:<length> must be an integer"),
    ("simulate", "beta_range: -2:abc", "beta_range must be a number, got 'abc'"),
    ("calibrate", "delta: abc", "delta must be a number, got 'abc'"),
    ("calibrate", "floor: true", "floor must be a number, got True"),
    ("calibrate", "delta: 1" + "0" * 400, "delta must be a number, got 1000"),
    ("evaluate", "lam: abc", "lam must be a number, got 'abc'"),
    ("evaluate", "clock: wall:abc", "clock wall:<seconds_per_unit> must be a number"),
    ("sweep", "nu2_grid: 0.1,abc", "nu2_grid must be a number, got 'abc'"),
    ("sweep", "solver_tolerance: abc", "solver_tolerance must be a number, got 'abc'"),
    ("predict", "now: abc", "now must be a number, got 'abc'"),
]))
def test_non_numeric_config_setting_names_its_key(sim_dir, tmp_path, capsys, command,
                                                  setting, message, form):
    code, captured, out = run_setting(sim_dir, tmp_path, capsys, command, setting, form)
    assert code == 2
    if form == "flag":
        message = FLAG_MESSAGES.get(setting, message)
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_responses_flag_names_its_setting(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", "--responses", "2.7", "--out", str(out)) == 2
    assert "responses must be an integer, got '2.7'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    """A cohort small enough to run every subcommand once per fuzzed setting."""
    out = tmp_path_factory.mktemp("toy") / "sim"
    assert run_cli("simulate", "--seed", "3", "--students", "3", "--concepts", "2",
                   "--items-per-concept", "2", "--responses", "6", "--out", str(out)) == 0
    return out


# each subcommand's numeric and switch config keys, with a base config that keeps
# runs tiny
FUZZED_KEYS = {
    "simulate": ("seed", "students", "concepts", "items_per_concept", "responses",
                 "alpha_range", "beta_range", "nu2", "lam", "gamma", "clock",
                 "assignment", "arrival"),
    "calibrate": ("max_rounds", "delta", "floor", "min_responses", "max_attempts",
                  "strict", "no_preprocess"),
    "evaluate": ("nu2", "lam", "gamma", "clock", "buckets", "solver_tolerance",
                 "solver_max_iterations", "min_responses", "max_attempts", "strict",
                 "no_preprocess"),
    "sweep": ("nu2_grid", "lambda_grid", "gamma_grid", "clock", "solver_tolerance",
              "solver_max_iterations", "min_responses", "max_attempts", "strict",
              "no_preprocess"),
    "predict": ("nu2", "lam", "gamma", "clock", "now", "strict"),
}
FUZZED_SETTINGS = [(command, key) for command, keys in FUZZED_KEYS.items() for key in keys]
NOT_A_SETTING = st.one_of(
    st.text(alphabet="0123456789abcdefilnptwxy:,.-+ ", max_size=8),
    st.sampled_from(["wall:", "exp:", "blocks:", "1:", ":2", "1:2:3", "0x10", "1e400",
                     "false", "1:1000000000000"]),
    st.sampled_from([10**12, -10**12, 10**30, 2**63]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@given(setting=st.sampled_from(FUZZED_SETTINGS), value=NOT_A_SETTING)
@settings(max_examples=60, deadline=None)
def test_fuzzed_numeric_setting_exits_cleanly(toy_dir, setting, value):
    command, key = setting
    data, bank = str(toy_dir / "interactions.csv"), str(toy_dir / "true_bank.csv")
    graph = str(toy_dir / "graph.txt")
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        base, flags = {
            "simulate": ({"students": 2, "concepts": 2, "items_per_concept": 2,
                          "responses": 4}, ["--out", out]),
            "calibrate": ({"max_rounds": 3}, ["--data", data, "--out", out]),
            "evaluate": ({"model": ["static_2po", "tskirt"]},
                         ["--data", data, "--bank", bank, "--graph", graph, "--out", out]),
            "sweep": ({"model": "tskirt"},
                      ["--data", data, "--bank", bank, "--graph", graph, "--out", out]),
            "predict": ({"items": "q0001"},
                        ["--history", data, "--student", "s0001", "--bank", bank,
                         "--graph", graph, "--out", out]),
        }[command]
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({**base, key: value}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(command, *flags, "--config", str(cfg))
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue() + stdout.getvalue()
    if code == 2:
        assert stderr.getvalue().startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--stud", "3"],
    ["calibrate", "--max-r", "2"],
    ["evaluate", "--buck", "4"],
    ["sweep", "--nu2-g", "0.1"],
    ["predict", "--ite", "q0001"],
])
def test_abbreviated_flag_is_refused(argv, capsys):
    """A flag takes exactly the name its config key does, with no prefixes."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ['no_preprocess: "false"', "no_preprocess: 0",
                                     "strict: 1", "strict: on purpose", "strict:"])
def test_config_switch_takes_only_true_or_false(sim_dir, tmp_path, capsys, setting):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(setting + "\nmin_responses: 1000\n")
    out = tmp_path / "bank.csv"
    assert run_cli("calibrate", "--data", str(sim_dir / "interactions.csv"),
                   "--out", str(out), "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert f"{setting.split(':')[0]} must be true or false" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_config_switch_is_read_as_a_boolean(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    for value, code in (("false", 2), ("true", 0)):
        cfg.write_text(f"no_preprocess: {value}\nmin_responses: 1000\nmax_rounds: 2\n")
        assert run_cli("calibrate", "--data", str(sim_dir / "interactions.csv"),
                       "--out", str(tmp_path / f"{value}.csv"), "--config", str(cfg)) == code
        if value == "false":  # preprocessing ran and dropped every student
            assert "empty training set" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, config_text", [
    ("calibrate",
     ["--max-rounds", "3", "--floor", "1", "--delta", "0.001", "--min-responses", "5"],
     "max_rounds: 3.0\nfloor: 1\ndelta: 1.0e-3\nmin_responses: 5.0\n"),
    ("evaluate",
     ["--model", "tskirt", "--model", "static_2po", "--nu2", "1", "--lambda", "2",
      "--buckets", "4", "--solver-max-iterations", "50", "--strict"],
     "model: [tskirt, static_2po]\nnu2: 1\nlam: 2\nbuckets: 4.0\n"
     "solver_max_iterations: 50.0\nstrict: true\n"),
], ids=["calibrate", "evaluate"])
def test_flag_and_config_forms_write_the_same_artifacts(sim_dir, tmp_path, capsys, command,
                                                        flags, config_text):
    """Each setting is recorded as the value the run used, however it was given."""
    inputs = ["--data", str(sim_dir / "interactions.csv")]
    if command == "evaluate":
        inputs += ["--bank", str(sim_dir / "true_bank.csv"),
                   "--graph", str(sim_dir / "graph.txt")]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config_text)
    run_dir = tmp_path / "run"
    out = run_dir / "bank.csv" if command == "calibrate" else run_dir

    def artifacts(*argv):
        run_dir.mkdir(exist_ok=True)
        assert run_cli(command, *inputs, *argv, "--out", str(out)) == 0
        files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        for p in run_dir.iterdir():
            p.unlink()
        return files

    from_flags = artifacts(*flags)
    from_config = artifacts("--config", str(cfg))
    capsys.readouterr()
    assert len(from_flags) >= 2 and from_flags.keys() == from_config.keys()
    path = json.dumps(str(cfg)).encode()
    assert any(path in body for body in from_config.values())
    for name, body in from_flags.items():
        assert body == from_config[name].replace(path, b"null"), name


def test_malformed_config_file_is_a_user_error(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("seed: [1, 2\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--nu2", "--lambda", "--gamma"])
def test_sweep_takes_no_fixed_hyperparameter(sim_dir, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--data", str(sim_dir / "interactions.csv"),
                "--bank", str(sim_dir / "true_bank.csv"), "--model", "static_2po",
                flag, "0.5")
    assert exc.value.code == 2


def test_cyclic_graph_file_is_a_user_error(sim_dir, tmp_path, capsys):
    bad = tmp_path / "cyclic.txt"
    bad.write_text("a\tb\nb\ta\n")
    assert run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "tskirt",
        "--graph", str(bad),
    ) == 2
    assert "cycle" in capsys.readouterr().err


def test_calibrate_writes_bank_and_sidecar(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli(
        "simulate", "--seed", "3", "--students", "120", "--concepts", "2",
        "--items-per-concept", "6", "--responses", "60", "--out", str(out),
    ) == 0
    bank_path = tmp_path / "bank.csv"
    code = run_cli(
        "calibrate", "--data", str(out / "interactions.csv"),
        "--out", str(bank_path), "--true-bank", str(out / "true_bank.csv"),
        "--concept-map", str(out / "true_bank.csv"), "--max-rounds", "25",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "recovery correlations" in captured.out

    fitted = ItemBank.load_csv(bank_path)
    truth = ItemBank.load_csv(out / "true_bank.csv")
    assert set(fitted.items) == set(truth.items)
    for item_id in fitted.items:
        assert fitted[item_id].concept_id == truth[item_id].concept_id

    sidecar = json.loads((tmp_path / "bank.csv.calibration.json").read_text())
    assert sidecar["format_version"] == "1"
    assert sidecar["run_config"]["command"] == "calibrate"
    assert sidecar["calibration"]["rounds"] >= 1
    assert sidecar["recovery_correlations"]["difficulty"] >= 0.9


def test_calibrate_reads_a_tab_separated_concept_map(sim_dir, tmp_path, capsys):
    data = str(sim_dir / "interactions.csv")
    items = list(ItemBank.load_csv(sim_dir / "true_bank.csv").items)
    mapping = {item: f"k{j % 2}" for j, item in enumerate(items)}
    cmap = tmp_path / "concepts.tsv"
    cmap.write_text("# item<TAB>concept\n\n"
                    + "".join(f"{item}\t {concept}\n" for item, concept in mapping.items()))
    out = tmp_path / "bank.csv"
    assert run_cli("calibrate", "--data", data, "--concept-map", str(cmap),
                   "--max-rounds", "2", "--out", str(out)) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["item_id"]: row["concept_id"] for row in rows} == mapping

    bad = tmp_path / "bad.tsv"
    bad.write_text(f"{items[0]}\tk0\n# comment\n{items[1]} k1\n")
    capsys.readouterr()
    assert run_cli("calibrate", "--data", data, "--concept-map", str(bad),
                   "--out", str(tmp_path / "bad_bank.csv")) == 2
    assert "line 3: expected `item_id<TAB>concept_id`" in capsys.readouterr().err
    assert not (tmp_path / "bad_bank.csv").exists()


def test_evaluate_writes_reports(sim_dir, tmp_path, capsys):
    out = tmp_path / "reports"
    code = run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        "--model", "spc", "--model", "tskirt", "--buckets", "4", "--out", str(out),
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "spc" in table and "tskirt" in table
    for name in ("report_spc.json", "report_tskirt.json", "buckets.tsv"):
        assert (out / name).exists()
    report = json.loads((out / "report_tskirt.json").read_text())
    assert report["format_version"] == "1"
    assert report["run_config"]["command"] == "evaluate"
    assert len(report["buckets"]) == 4
    body = (out / "buckets.tsv").read_text().splitlines()
    assert len([l for l in body if not l.startswith("#")]) == 1 + 2 * 4


def test_duplicate_models_rejected(sim_dir, capsys):
    assert run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"),
        "--model", "spc", "--model", "spc",
    ) == 2
    assert "duplicate model" in capsys.readouterr().err


def test_strict_mode_fails_on_malformed_rows(sim_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    good = (sim_dir / "interactions.csv").read_text().splitlines()
    bad.write_text("\n".join(good[:50] + ["oops,row"] + good[50:]) + "\n")
    assert run_cli("evaluate", "--data", str(bad),
                   "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc") == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert run_cli("evaluate", "--data", str(bad),
                   "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
                   "--strict") == 2


def test_sweep_single_point_matches_evaluate(sim_dir, tmp_path, capsys):
    eval_out = tmp_path / "eval"
    assert run_cli(
        "evaluate", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        "--model", "tskirt", "--nu2", "0.2", "--out", str(eval_out),
    ) == 0
    sweep_out = tmp_path / "sweep.json"
    assert run_cli(
        "sweep", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        "--model", "tskirt", "--nu2-grid", "0.2", "--out", str(sweep_out),
    ) == 0
    capsys.readouterr()
    evaluated = json.loads((eval_out / "report_tskirt.json").read_text())
    swept = json.loads(sweep_out.read_text())
    assert swept["format_version"] == "1"
    assert len(swept["results"]) == 1
    assert swept["best"]["nu2"] == 0.2
    assert swept["best"]["accuracy"] == pytest.approx(
        evaluated["metrics"]["accuracy"], abs=1e-12
    )


def test_sweep_orders_rows_and_breaks_ties_toward_smaller(sim_dir, tmp_path, capsys):
    sweep_out = tmp_path / "sweep.json"
    assert run_cli(
        "sweep", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "static_2po",
        "--lambda-grid", "0.5,1.0", "--out", str(sweep_out),
    ) == 0
    out = capsys.readouterr().out
    assert "best:" in out
    swept = json.loads(sweep_out.read_text())
    accs = [r["accuracy"] for r in swept["results"]]
    assert accs == sorted(accs, reverse=True)
    if accs[0] == accs[1]:
        assert swept["best"]["lam"] == 0.5


def test_sweep_rejects_spc_and_empty_grids(sim_dir, capsys):
    assert run_cli(
        "sweep", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
    ) == 2
    assert "no hyperparameters" in capsys.readouterr().err
    assert run_cli(
        "sweep", "--data", str(sim_dir / "interactions.csv"),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "tskirt",
        "--nu2-grid", ",",
    ) == 2
    assert "empty hyperparameter grid" in capsys.readouterr().err


def prefix_history_file(sim_dir, tmp_path, sid, k):
    data = preprocess(load_interactions(sim_dir / "interactions.csv"))
    records = data.students[sid][:k]
    path = tmp_path / "history.csv"
    write_interactions(Dataset.from_records(records), path)
    return data, path


@pytest.mark.parametrize("model_args, variant", [
    (("--model", "static_2po"), ModelVariant.from_name("static_2po")),
    (("--model", "tskirt", "--nu2", "0.2"), ModelVariant.from_name("tskirt", nu2=0.2)),
    (("--model", "temporal_2po"), ModelVariant.from_name("temporal_2po")),
    (("--model", "factorial_mvn"), ModelVariant.from_name("factorial_mvn")),
    (("--model", "correlated_mvn"), ModelVariant.from_name("correlated_mvn")),
])
def test_predict_matches_streaming_harness_prefix(
    sim_dir, tmp_path, capsys, model_args, variant
):
    data = preprocess(load_interactions(sim_dir / "interactions.csv"))
    bank = ItemBank.load_csv(sim_dir / "true_bank.csv")
    graph = load_graph(sim_dir / "graph.txt")
    s = 4
    k = 7  # predict the 8th event from the first 7
    # the harness warm-starts and predict starts at the prior mean, both stopping
    # at gradient <= 1e-8; temporal_2po's nu2 = 10 discounts old events to a flat
    # posterior, where that leaves 3e-11 between the two, inside C5's 1e-8
    tol = 1e-8 if variant.kind == "temporal_2po" else 1e-12
    for clock, spu in (("step", 1.0), ("wall:3600", 3600.0)):
        report = run_online_evaluation(data, bank, variant, prior_graph=graph, n_buckets=1,
                                       clock=clock.split(":")[0], seconds_per_unit=spu)
        lengths = np.bincount(report.student_index)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        sid = report.students[s]
        _, history_path = prefix_history_file(sim_dir, tmp_path, sid, k)
        next_event = data.students[sid][k]
        # under the wall clock the harness predicts at the next event's own time
        now = () if clock == "step" else ("--now", repr(next_event.timestamp / spu))
        code = run_cli(
            "predict", "--history", str(history_path), "--bank",
            str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
            *model_args, "--clock", clock, *now, "--items", next_event.item_id,
        )
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        name, prob = line.split("\t")
        assert name == next_event.item_id
        assert float(prob) == pytest.approx(report.probabilities[starts[s] + k], abs=tol)


def test_predict_spc_and_json_output(sim_dir, tmp_path, capsys):
    data = preprocess(load_interactions(sim_dir / "interactions.csv"))
    sid = next(iter(data.students))
    records = data.students[sid][:6]
    history_path = tmp_path / "history.csv"
    write_interactions(Dataset.from_records(records), history_path)
    frac = sum(r.correct for r in records) / 6
    out_path = tmp_path / "pred.json"
    items = "q0001,q0002"
    assert run_cli(
        "predict", "--history", str(history_path),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
        "--items", items, "--out", str(out_path),
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split("\t")[1] for l in lines] == [format(frac, ".17g")] * 2
    payload = json.loads(out_path.read_text())
    assert payload["model"] == "spc"
    assert payload["n_history_events"] == 6
    assert payload["estimate"]["history_fraction_correct"] == pytest.approx(frac)
    assert [p["item_id"] for p in payload["predictions"]] == ["q0001", "q0002"]


def test_predict_multi_student_file_needs_student_flag(sim_dir, capsys):
    args = ("predict", "--history", str(sim_dir / "interactions.csv"),
            "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
            "--items", "q0001")
    assert run_cli(*args) == 2
    assert "--student" in capsys.readouterr().err
    assert run_cli(*args, "--student", "s0003") == 0
    assert run_cli(*args, "--student", "nobody") == 2


def test_predict_unknown_candidate_item(sim_dir, tmp_path, capsys):
    data, history_path = prefix_history_file(sim_dir, tmp_path, "s0001", 5)
    assert run_cli(
        "predict", "--history", str(history_path),
        "--bank", str(sim_dir / "true_bank.csv"), "--model", "spc",
        "--items", "qZZZZ",
    ) == 2
    assert "not in the bank" in capsys.readouterr().err


# README placeholders, each replaced by a value the command accepts
README_PLACEHOLDERS = {"$seed": "1", "<best nu2>": "0.1", "<best lam>": "0.3",
                       "<best gamma>": "1.2"}


def readme_commands():
    """Every `ogive ...` command in README.md's sh blocks, as argv after `ogive`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("ogive "):
                for placeholder, value in README_PLACEHOLDERS.items():
                    line = line.replace(placeholder, value)
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse_and_resolve():
    """A renamed or dropped flag fails here instead of leaving the README stale."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        assert not any(c in " ".join(argv) for c in "$<>"), argv
        args = cli.build_parser().parse_args(argv)
        resolved = cli._resolve(args, cli.COMMANDS[args.command][1])
        assert resolved["command"] == argv[0]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_setting(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in cli.COMMANDS[command][1]:
        assert cli._flag(key) in out
