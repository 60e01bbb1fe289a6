"""End-to-end command-line runs in-process: exit codes, files, cross-command
consistency.

simulate twice with one seed must produce byte-identical artifacts; a
one-point sweep must agree with evaluate; predict on a history prefix must
reproduce the streaming harness's next-event probability.
"""

import json

import numpy as np
import pytest

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
                    "--graph", graph, "--items", "q0001"],
    }[command]
    assert run_cli(command, *inputs, *flags) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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
])
def test_predict_matches_streaming_harness_prefix(
    sim_dir, tmp_path, capsys, model_args, variant
):
    data = preprocess(load_interactions(sim_dir / "interactions.csv"))
    bank = ItemBank.load_csv(sim_dir / "true_bank.csv")
    graph = load_graph(sim_dir / "graph.txt")
    report = run_online_evaluation(data, bank, variant, prior_graph=graph, n_buckets=1)
    lengths = np.bincount(report.student_index)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    s = 4
    sid = report.students[s]
    k = 7  # predict the 8th event from the first 7
    _, history_path = prefix_history_file(sim_dir, tmp_path, sid, k)
    next_item = data.students[sid][k].item_id
    code = run_cli(
        "predict", "--history", str(history_path), "--bank",
        str(sim_dir / "true_bank.csv"), "--graph", str(sim_dir / "graph.txt"),
        *model_args, "--items", next_item,
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    name, prob = line.split("\t")
    assert name == next_item
    assert float(prob) == pytest.approx(report.probabilities[starts[s] + k], abs=1e-12)


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
