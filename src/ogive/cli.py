"""Command-line entry point: simulate, calibrate, evaluate, sweep, predict.

Each subcommand declares every setting once, in a table mapping its key to
`(default, kind, help)`.  The key is the config-file key and, with dashes, the
flag (only `lam` is `--lambda`); flags take no prefixes.  Kinds: int and float
parse through `_number`, bool is a switch (the flag, or true/false in a file),
str is text the command parses, and a tuple or list gives the flag's choices (a
list flag repeats).  A REQUIRED setting must be given; a None default is unset.
Precedence: flags override the YAML config file, which overrides the table.
Flag and file values parse the same way, and numeric defaults come from the
library classes that check them (`ModelVariant`, `CalibrationConfig`, ...);
their errors exit 2.  Every output artifact embeds the resolved settings, in
table order, and a format version; nothing in any output depends on the wall
clock, so identical inputs and seeds produce byte-identical outputs.

Exit codes: 0 success, 1 internal error, 2 user or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .calibration import CalibrationConfig, ItemBank, calibrate, recovery_correlations
from .concept_graph import chain_graph, load_graph, save_graph
from .dataio import DataError, Dataset, load_interactions, preprocess, write_interactions
from .evaluation import (
    MODEL_KINDS,
    ModelVariant,
    model_prior,
    record_columns,
    run_online_evaluation,
    summary_table,
    write_bucket_tsv,
    write_report_json,
)
from .inference import SolverConfig, estimate_history
from .irt_core import TemporalConfig, probit
from .simulate import ItemBankSpec, SimulationScenario, generate, write_truth

CLI_FORMAT_VERSION = "1"


# -- option parsing helpers ---------------------------------------------------


def _number(value, name: str, integer: bool = False):
    """value as a float, or as an int when `integer`; anything else is an error naming `name`.

    Accepts numbers and numeric text; an integer also accepts an integral
    float.  Refuses what else a config file or flag can hold, such as 'abc',
    true, or 2.7 for an integer.  Non-finite values pass; each setting checks
    them where it is defined.
    """
    want = int if integer else float
    try:
        if isinstance(value, str) or (type(value) is int and not integer):
            value = want(value)
        elif type(value) is float and integer and value.is_integer():
            value = int(value)
    except (ValueError, OverflowError):  # OverflowError: an int past float range
        pass
    if type(value) is not want:
        raise DataError(f"{name} must be {'an integer' if integer else 'a number'}, "
                        f"got {value!r}")
    return value


def _pair_setting(resolved: dict, key: str) -> tuple[float, float]:
    text = resolved[key]
    parts = str(text).split(":")
    if len(parts) != 2:
        raise DataError(f"{key} must be lo:hi, got {text!r}")
    return _number(parts[0], key), _number(parts[1], key)


def _parse_responses(value):
    if isinstance(value, str) and ":" in value:
        lo, hi = value.split(":", 1)
        return (_number(lo, "responses", integer=True), _number(hi, "responses", integer=True))
    return _number(value, "responses", integer=True)


def _parse_clock(text) -> tuple[str, float]:
    s = str(text)
    if s == "step":
        return "step", 1.0
    if s == "wall":
        return "wall", 1.0
    if s.startswith("wall:"):
        return "wall", _number(s[len("wall:"):], "clock wall:<seconds_per_unit>")
    raise DataError(f"--clock must be 'step' or 'wall:<seconds_per_unit>', got {text!r}")


def _grid_setting(resolved: dict, key: str, default: float) -> list[float]:
    """A hyperparameter grid: a list or comma-separated text, [default] when unset."""
    value = resolved[key]
    if value is None:
        return [default]
    if isinstance(value, (list, tuple)):
        vals = [_number(x, key) for x in value]
    else:
        vals = [_number(x, key) for x in str(value).split(",") if x.strip() != ""]
    if not vals:
        raise DataError("empty hyperparameter grid")
    return vals


def _flag(key: str) -> str:
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _resolve(args: argparse.Namespace, settings: dict) -> dict:
    """The run configuration: the command, then flags > config file > defaults.

    A flag and a config key reach a setting through the same parse, so the
    artifacts record the value the run used in either case.
    """
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
        cfg = {} if cfg is None else cfg
        if not isinstance(cfg, dict):
            raise DataError(f"{args.config}: config file must be a mapping")
    unknown = sorted(str(key) for key in cfg if key not in settings)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {"command": args.command, "version": __version__}
    for key, (default, kind, _) in settings.items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, default)
        if default is REQUIRED and (value is None or value is REQUIRED):
            raise DataError(f"{_flag(key)} is required")
        if kind is bool and type(value) is not bool:
            raise DataError(f"{key} must be true or false, got {value!r}")
        if kind in (int, float) and not (value is None and default is None):
            value = _number(value, key, integer=kind is int)
        resolved[key] = value
    resolved["config"] = args.config
    return resolved


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_dataset(resolved: dict) -> Dataset:
    data = load_interactions(
        resolved["data"], format=resolved["format"], strict=resolved["strict"]
    )
    if data.parse_errors:
        for lineno, reason in data.parse_errors[:5]:
            print(f"warning: {resolved['data']}: line {lineno}: {reason}", file=sys.stderr)
        if len(data.parse_errors) > 5:
            print(f"warning: {len(data.parse_errors)} malformed rows skipped in total",
                  file=sys.stderr)
    if not resolved["no_preprocess"]:
        data = preprocess(
            data,
            min_responses=resolved["min_responses"],
            max_attempts_per_item=resolved["max_attempts"],
        )
    return data


def _load_run_inputs(resolved: dict) -> tuple[Dataset, ItemBank, dict]:
    """The data, bank and `run_online_evaluation` options that evaluate and sweep share."""
    data = _load_dataset(resolved)
    bank = ItemBank.load_csv(resolved["bank"])
    graph = load_graph(resolved["graph"]) if resolved["graph"] else None
    clock, spu = _parse_clock(resolved["clock"])
    solver = SolverConfig(gradient_tolerance=resolved["solver_tolerance"],
                          max_iterations=resolved["solver_max_iterations"])
    return data, bank, {"prior_graph": graph, "solver": solver, "clock": clock,
                        "seconds_per_unit": spu}


def _variant(name, resolved: dict) -> ModelVariant:
    """Model `name` with the run's nu2, lam and gamma where they are set."""
    return ModelVariant.from_name(str(name), nu2=resolved["nu2"], lam=resolved["lam"],
                                  gamma=resolved["gamma"])


def _concept_map_from_file(path) -> dict[str, str]:
    """Item-to-concept mapping from a bank CSV or a 2-column TSV."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
    if first.strip().startswith("item_id,concept_id"):
        bank = ItemBank.load_csv(path)
        return {i: p.concept_id for i, p in bank.items.items()}
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"{path}: line {lineno}: expected `item_id<TAB>concept_id`"
                )
            mapping[parts[0].strip()] = parts[1].strip()
    return mapping


# -- settings shared by several tables -----------------------------------------

REQUIRED = object()

_BANK = (REQUIRED, str, "item bank CSV")
_GRAPH = (None, str, "concept graph file")
_CLOCK = ("step", str, "'step' or 'wall:<seconds_per_unit>'")
_INPUT = {
    "format": ("csv", ("csv", "jsonl"), "interaction file format"),
    "strict": (False, bool, "fail on malformed rows instead of skipping them"),
}
_PREPROCESSING = {
    "no_preprocess": (False, bool, "skip attempt capping and the minimum-response filter"),
    "min_responses": (5, int, "drop students with fewer retained responses"),
    "max_attempts": (4, int, "keep only the most recent attempts per student/item pair"),
}
_SOLVER = {
    "solver_tolerance": (SolverConfig.gradient_tolerance, float,
                         "Newton stopping tolerance on the gradient"),
    "solver_max_iterations": (SolverConfig.max_iterations, int, "Newton iteration cap"),
}
_HYPERPARAMETERS = {
    "nu2": (None, float,
            "drift variance per clock unit of models with drift (the model's own when unset)"),
    "lam": (None, float, "prior precision weight on each proficiency (likewise)"),
    "gamma": (None, float, "prerequisite coupling weight of coupled models (likewise)"),
}


# -- subcommands --------------------------------------------------------------

SIMULATE_SETTINGS = {
    "seed": (0, int, "random seed"),
    "students": (100, int, "number of students"),
    "concepts": (10, int, "size of the default chain graph (ignored with --graph)"),
    "graph": (None, str, "concept graph file (default: a chain)"),
    "items_per_concept": (ItemBankSpec.items_per_concept, int, "items per concept"),
    "responses": ("100", str, "events per student: N or lo:hi"),
    "alpha_range": ("0.5:2.0", str, "true discrimination range lo:hi"),
    "beta_range": ("-2.0:2.0", str, "true difficulty range lo:hi"),
    "nu2": (TemporalConfig.drift_variance, float, "true drift variance per clock unit"),
    "lam": (SimulationScenario.lam, float, "true prior precision weight"),
    "gamma": (SimulationScenario.gamma, float, "true prerequisite coupling weight"),
    "clock": _CLOCK,
    "assignment": ("uniform", str, "'uniform' or 'blocks:<length>'"),
    "coupling": ("independent", ("independent", "prior_shaped"),
                 "drift step coupling across concepts"),
    "arrival": ("unit", str, "'unit' or 'exp:<mean_seconds>'"),
    "format": _INPUT["format"],
    "out": (REQUIRED, str, "output directory"),
}


def cmd_simulate(resolved: dict) -> int:
    if resolved["graph"] is not None:
        graph = load_graph(resolved["graph"])
    else:
        graph = chain_graph(resolved["concepts"])
    clock, spu = _parse_clock(resolved["clock"])

    assignment, block_length = str(resolved["assignment"]), 10
    if assignment.startswith("blocks:"):
        assignment, block_length = "blocks", _number(
            assignment[len("blocks:"):], "assignment blocks:<length>", integer=True)
    arrival, mean_gap = str(resolved["arrival"]), 1.0
    if arrival.startswith("exp:"):
        arrival, mean_gap = "exponential", _number(arrival[len("exp:"):],
                                                   "arrival exp:<mean_seconds>")
    elif arrival == "exp":
        arrival = "exponential"

    scenario = SimulationScenario(
        seed=resolved["seed"],
        n_students=resolved["students"],
        graph=graph,
        bank_spec=ItemBankSpec(
            items_per_concept=resolved["items_per_concept"],
            discrimination_range=_pair_setting(resolved, "alpha_range"),
            difficulty_range=_pair_setting(resolved, "beta_range"),
        ),
        true_temporal=TemporalConfig(resolved["nu2"], clock, spu),
        lam=resolved["lam"],
        gamma=resolved["gamma"],
        responses_per_student=_parse_responses(resolved["responses"]),
        assignment=assignment,
        block_length=block_length,
        drift_coupling=str(resolved["coupling"]),
        inter_arrival=arrival,
        mean_inter_arrival_seconds=mean_gap,
    )
    result = generate(scenario)

    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if resolved["format"] == "csv" else "jsonl"
    write_interactions(result.dataset, out_dir / f"interactions.{ext}",
                       format=resolved["format"])
    save_graph(graph, out_dir / "graph.txt")
    write_truth(result, out_dir / "true_bank.csv", out_dir / "true_paths.jsonl")
    _write_json(out_dir / "scenario.json", {
        "format_version": CLI_FORMAT_VERSION,
        "run_config": resolved,
        "summary": result.dataset.summary(),
        "n_items": len(result.bank),
    })
    stats = result.dataset.summary()
    print(f"wrote {stats['n_responses']} responses from {stats['n_students']} students "
          f"on {stats['n_items']} items to {out_dir}")
    return 0


CALIBRATE_SETTINGS = {
    "data": (REQUIRED, str, "training interaction log"),
    "out": (REQUIRED, str, "output bank CSV path"),
    **_INPUT,
    "concept_map": (None, str,
                    "item-to-concept mapping: a bank CSV or item<TAB>concept lines"),
    "true_bank": (None, str, "true bank CSV for recovery correlations"),
    "max_rounds": (CalibrationConfig.max_outer_rounds, int, "alternating rounds cap"),
    "delta": (CalibrationConfig.convergence_delta, float,
              "stop when mean absolute parameter change drops below this"),
    "floor": (CalibrationConfig.discrimination_floor, float, "discrimination floor"),
    **_PREPROCESSING,
}


def cmd_calibrate(resolved: dict) -> int:
    data = _load_dataset(resolved)
    config = CalibrationConfig(
        max_outer_rounds=resolved["max_rounds"],
        convergence_delta=resolved["delta"],
        discrimination_floor=resolved["floor"],
    )
    concept_map = (
        _concept_map_from_file(resolved["concept_map"])
        if resolved["concept_map"] else None
    )
    bank = calibrate(data, config, concept_map=concept_map)
    bank.save_csv(resolved["out"])

    log = {
        "format_version": CLI_FORMAT_VERSION,
        "run_config": resolved,
        "data_summary": data.summary(),
        "calibration": bank.meta.to_dict(),
    }
    if resolved["true_bank"]:
        truth = ItemBank.load_csv(resolved["true_bank"])
        corr = recovery_correlations(bank, truth)
        log["recovery_correlations"] = corr
        print(f"recovery correlations: discrimination {corr['discrimination']:.4f}, "
              f"difficulty {corr['difficulty']:.4f} over {corr['n_shared_items']} items")
    _write_json(str(resolved["out"]) + ".calibration.json", log)
    print(f"calibrated {len(bank)} items in {bank.meta.rounds} rounds "
          f"(final delta {bank.meta.final_delta}); bank written to {resolved['out']}")
    return 0


EVALUATE_SETTINGS = {
    "data": (REQUIRED, str, "evaluation interaction log"),
    "bank": _BANK,
    "graph": _GRAPH,
    "model": (None, list(MODEL_KINDS), "model variant; repeat for several (tskirt when unset)"),
    **_HYPERPARAMETERS,
    "clock": _CLOCK,
    "buckets": (10, int, "percent-correct buckets in the plot table"),
    **_SOLVER,
    **_INPUT,
    "out": (None, str, "output directory for reports"),
    **_PREPROCESSING,
}


def cmd_evaluate(resolved: dict) -> int:
    data, bank, options = _load_run_inputs(resolved)
    names = resolved["model"]
    names = ["tskirt"] if names is None else [names] if isinstance(names, str) else list(names)
    if len(set(map(str, names))) != len(names):
        raise DataError("duplicate model names")
    variants = [_variant(name, resolved) for name in names]
    reports = [
        run_online_evaluation(data, bank, variant, n_buckets=resolved["buckets"], **options)
        for variant in variants
    ]
    print(summary_table(reports))
    if resolved["out"]:
        out_dir = Path(resolved["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            write_report_json(report, out_dir / f"report_{report.model}.json", resolved)
        write_bucket_tsv(reports, out_dir / "buckets.tsv", resolved)
        print(f"reports written to {out_dir}")
    return 0


SWEEP_SETTINGS = {
    "data": (REQUIRED, str, "tuning interaction log (keep the eval split out)"),
    "bank": _BANK,
    "graph": _GRAPH,
    "model": ("tskirt", MODEL_KINDS, "model variant"),
    "nu2_grid": (None, str, "comma-separated drift variances (the model's own when unset)"),
    "lambda_grid": (None, str, "comma-separated weights (likewise)"),
    "gamma_grid": (None, str, "comma-separated coupling weights (likewise)"),
    "clock": _CLOCK,
    **_SOLVER,
    **_INPUT,
    "out": (None, str, "output JSON path"),
    **_PREPROCESSING,
}


def cmd_sweep(resolved: dict) -> int:
    base = str(resolved["model"])
    if base == "spc":
        raise DataError("spc has no hyperparameters to sweep")
    default = ModelVariant.from_name(base)
    nu2_grid = _grid_setting(resolved, "nu2_grid", default.nu2)
    lam_grid = _grid_setting(resolved, "lambda_grid", default.lam)
    gamma_grid = _grid_setting(resolved, "gamma_grid", default.gamma)
    knobs = default.hyperparameters()
    for key, knob in (("nu2_grid", "nu2"), ("lambda_grid", "lam"), ("gamma_grid", "gamma")):
        if resolved[key] is not None and knob not in knobs:
            raise DataError(f"{base} has no {knob} to sweep; drop {_flag(key)}")
    data, bank, options = _load_run_inputs(resolved)

    rows = []
    for nu2, lam, gamma in itertools.product(nu2_grid, lam_grid, gamma_grid):
        variant = ModelVariant.from_name(base, nu2=nu2, lam=lam, gamma=gamma)
        report = run_online_evaluation(data, bank, variant, n_buckets=1, **options)
        rows.append({
            "nu2": variant.nu2, "lam": variant.lam, "gamma": variant.gamma,
            "accuracy": report.accuracy, "accuracy_sem": report.accuracy_sem,
            "auc": report.auc, "mean_log_likelihood": report.mean_log_likelihood,
            "n_predictions": report.n_predictions,
        })
    # descending accuracy; ties prefer the smaller nu2, then lam, then gamma
    rows.sort(key=lambda r: (-r["accuracy"], r["nu2"], r["lam"], r["gamma"]))
    best = rows[0]
    header = f"{'nu2':>8} {'lam':>8} {'gamma':>8} {'accuracy':>10} {'sem':>9} {'auc':>8}"
    print(header)
    print("-" * len(header))
    for r in rows:
        auc = "n/a" if r["auc"] is None else f"{r['auc']:.4f}"
        print(f"{r['nu2']:>8g} {r['lam']:>8g} {r['gamma']:>8g} "
              f"{r['accuracy']:>10.4f} {r['accuracy_sem']:>9.4f} {auc:>8}")
    print(f"best: nu2={best['nu2']:g} lam={best['lam']:g} gamma={best['gamma']:g} "
          f"accuracy={best['accuracy']:.4f}")
    if resolved["out"]:
        _write_json(resolved["out"], {
            "format_version": CLI_FORMAT_VERSION,
            "run_config": resolved,
            "results": rows,
            "best": best,
        })
    return 0


PREDICT_SETTINGS = {
    "history": (REQUIRED, str, "one student's interaction log"),
    "bank": _BANK,
    "graph": _GRAPH,
    "model": ("tskirt", MODEL_KINDS, "model variant"),
    **_HYPERPARAMETERS,
    "clock": _CLOCK,
    "student": (None, str, "student id when the file holds several"),
    "items": (REQUIRED, str, "comma-separated candidate item ids"),
    "now": (None, float, "prediction time in clock units "
                         "(default: one step after the history, or its last timestamp)"),
    **_INPUT,
    "out": (None, str, "output JSON path"),
}


def cmd_predict(resolved: dict) -> int:
    bank = ItemBank.load_csv(resolved["bank"])
    graph = load_graph(resolved["graph"]) if resolved["graph"] else None
    clock, spu = _parse_clock(resolved["clock"])
    data = load_interactions(resolved["history"], format=resolved["format"],
                             strict=resolved["strict"])
    if resolved["student"] is not None:
        sid = str(resolved["student"])
        if sid not in data.students:
            raise DataError(f"student {sid!r} not found in {resolved['history']}")
        records = data.students[sid]
    elif data.n_students == 1:
        records = next(iter(data.students.values()))
    elif data.n_students == 0:
        records = []
    else:
        raise DataError(
            f"{resolved['history']} holds {data.n_students} students; pick one with --student"
        )

    variant = _variant(resolved["model"], resolved)
    item_names = (resolved["items"].split(",") if isinstance(resolved["items"], str)
                  else list(resolved["items"]))
    item_names = [s.strip() for s in item_names if s.strip()]
    if not item_names:
        raise DataError("no candidate items given")
    for name in item_names:
        if name not in bank:
            raise DataError(f"item {name!r} is not in the bank")

    # history columns; bank-unknown items drop out of the stream as in evaluation
    ids, alphas, betas, _ = bank.arrays()
    item, correct, stamp = record_columns(records, bank)
    known = item >= 0
    n_skipped = len(item) - int(known.sum())
    item, correct, stamp = item[known], correct[known], stamp[known]
    if n_skipped:
        print(f"warning: {n_skipped} history events on unknown items ignored",
              file=sys.stderr)

    # the step clock counts kept events, as in evaluation
    temporal = TemporalConfig(variant.nu2, clock, spu)
    times = temporal.event_time(np.arange(1.0, len(item) + 1), stamp)
    if resolved["now"] is not None:
        now = resolved["now"]
    elif clock == "step":
        now = float(len(item) + 1)
    else:
        now = float(times[-1]) if len(item) else 0.0
    if not np.isfinite(now):
        raise DataError(f"now must be finite, got {now}")

    if variant.is_spc:
        p = float(correct.sum()) / len(correct) if len(correct) else 0.5
        probabilities = [p] * len(item_names)
        estimate_info = {"history_fraction_correct": p}
    else:
        precision, item_concept, concept_ids = model_prior(variant, graph, bank)
        estimate = estimate_history(
            alphas[item], betas[item], correct, times, now, variant.nu2, precision,
            item_concept[item], concept_ids=concept_ids,
        )
        cand = np.array([ids.index(name) for name in item_names])
        probabilities = probit(
            alphas[cand] * (estimate.theta[item_concept[cand]] - betas[cand])
        ).tolist()
        estimate_info = {
            "theta": estimate.theta.tolist(),
            "concept_ids": list(concept_ids) if concept_ids is not None else None,
            "converged": estimate.converged,
            "iterations": estimate.iterations,
        }
    predictions = list(zip(item_names, probabilities))

    for name, p in predictions:
        print(f"{name}\t{format(p, '.17g')}")
    if resolved["out"]:
        _write_json(resolved["out"], {
            "format_version": CLI_FORMAT_VERSION,
            "run_config": resolved,
            "model": variant.kind,
            "hyperparameters": variant.hyperparameters(),
            "now": now,
            "n_history_events": len(item),
            "n_skipped_history_events": n_skipped,
            "estimate": estimate_info,
            "predictions": [{"item_id": n, "probability": p} for n, p in predictions],
        })
    return 0


# -- parser wiring ------------------------------------------------------------

COMMANDS = {
    "simulate": (cmd_simulate, SIMULATE_SETTINGS, "generate a synthetic cohort"),
    "calibrate": (cmd_calibrate, CALIBRATE_SETTINGS,
                  "fit item parameters on a training split"),
    "evaluate": (cmd_evaluate, EVALUATE_SETTINGS, "online next-response evaluation"),
    "sweep": (cmd_sweep, SWEEP_SETTINGS, "grid search hyperparameters on a tuning split"),
    "predict": (cmd_predict, PREDICT_SETTINGS, "probabilities for candidate next items"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogive",
        description="Online proficiency estimation and next-response prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, settings, summary) in COMMANDS.items():
        # no prefixes: a flag takes exactly the name its config key does
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="YAML config file; flags override its values")
        for key, (default, kind, text) in settings.items():
            if default is REQUIRED:
                text += " (required)"
            elif default is not None and kind is not bool:
                text += f" (default {default})"
            options = {"action": "store_true"} if kind is bool else {}
            if isinstance(kind, (tuple, list)):
                options["choices"] = kind
                if isinstance(kind, list):
                    options["action"] = "append"
            # None marks an unset flag; an argparse default would also make
            # `--model x` extend a config file's model list instead of replacing it
            p.add_argument(_flag(key), dest=key, default=None, help=text, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, settings, _ = COMMANDS[args.command]
    try:
        return command(_resolve(args, settings))
    except (ValueError, OSError, KeyError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
