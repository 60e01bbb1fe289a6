"""Command-line entry point: simulate, calibrate, evaluate, sweep, predict.

Option precedence: command-line flags override config-file values, which
override built-in defaults.  The config file is a YAML mapping whose keys are
the long option names with dashes as underscores (e.g. `min_responses: 5`).
Defaults live in the per-command `*_DEFAULTS` tables, not in argparse:
`--model` appends, so argparse defaults taken from a config file would make
`--model tskirt` extend the file's model list instead of replacing it.
Settings are checked where the library defines them (`ModelVariant`,
`TemporalConfig`, `CalibrationConfig`, ...); their errors exit 2.
Every output artifact embeds the fully resolved run configuration and a
format version; nothing in any output depends on the wall clock, so identical
inputs and seeds produce byte-identical outputs.

Exit codes: 0 success, 1 internal error, 2 user or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import yaml

from . import __version__
from .calibration import CalibrationConfig, ItemBank, calibrate, recovery_correlations
from .concept_graph import chain_graph, load_graph, save_graph
from .dataio import DataError, Dataset, load_interactions, preprocess, write_interactions
from .evaluation import (
    MODEL_KINDS,
    ModelVariant,
    resolve_prior,
    run_online_evaluation,
    summary_table,
    write_bucket_tsv,
    write_report_json,
)
from .inference import SolverConfig, map_estimate_scalar, map_estimate_vector, predict_next
from .irt_core import ResponseEvent, ScalarPriorConfig, TemporalConfig
from .simulate import ItemBankSpec, SimulationScenario, generate, write_truth

CLI_FORMAT_VERSION = "1"


# -- option parsing helpers ---------------------------------------------------


def _parse_pair(text, name: str) -> tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise DataError(f"{name} must be lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_responses(text):
    s = str(text)
    if ":" in s:
        lo, hi = s.split(":", 1)
        return (int(lo), int(hi))
    return int(s)


def _parse_clock(text) -> tuple[str, float]:
    s = str(text)
    if s == "step":
        return "step", 1.0
    if s == "wall":
        return "wall", 1.0
    if s.startswith("wall:"):
        return "wall", float(s[len("wall:"):])
    raise DataError(f"--clock must be 'step' or 'wall:<seconds_per_unit>', got {text!r}")


def _parse_grid(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        vals = [float(x) for x in value]
    else:
        vals = [float(x) for x in str(value).split(",") if x.strip() != ""]
    if not vals:
        raise DataError("empty hyperparameter grid")
    return vals


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = yaml.safe_load(fh)
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config file must be a mapping")
    return obj


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge flags > config file > defaults into one plain dict."""
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg[key] if key in cfg else default
        resolved[key] = value
    resolved["config"] = getattr(args, "config", None)
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved[key] is None:
            raise DataError(f"--{key.replace('_', '-')} is required")


def _run_config(command: str, resolved: dict) -> dict:
    out = {"command": command, "version": __version__}
    out.update({k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()})
    return out


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_dataset(resolved: dict) -> Dataset:
    data = load_interactions(
        resolved["data"], format=resolved["format"], strict=bool(resolved["strict"])
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
            min_responses=int(resolved["min_responses"]),
            max_attempts_per_item=int(resolved["max_attempts"]),
        )
    return data


def _models_list(value) -> list[str]:
    if value is None:
        return ["tskirt"]
    names = [value] if isinstance(value, str) else list(value)
    if len(set(names)) != len(names):
        raise DataError("duplicate model names")
    return names


def _concept_map_from_file(path) -> dict[str, str]:
    """Item-to-concept mapping from a bank CSV or a 2-column TSV."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.strip().startswith("item_id,concept_id"):
        bank = ItemBank.load_csv(path)
        return {i: p.concept_id for i, p in bank.items.items()}
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
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


# -- subcommands --------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "seed": 0, "students": 100, "concepts": 10, "graph": None,
    "items_per_concept": 10, "responses": "100",
    "alpha_range": "0.5:2.0", "beta_range": "-2.0:2.0",
    "nu2": 0.0, "lam": 1.0, "gamma": 0.0, "clock": "step",
    "assignment": "uniform", "coupling": "independent", "arrival": "unit",
    "format": "csv", "out": None,
}


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, SIMULATE_DEFAULTS)
    _require(resolved, "out")
    if resolved["graph"] is not None:
        graph = load_graph(resolved["graph"])
    else:
        graph = chain_graph(int(resolved["concepts"]))
    clock, spu = _parse_clock(resolved["clock"])

    assignment, block_length = str(resolved["assignment"]), 10
    if assignment.startswith("blocks:"):
        assignment, block_length = "blocks", int(assignment[len("blocks:"):])
    arrival, mean_gap = str(resolved["arrival"]), 1.0
    if arrival.startswith("exp:"):
        arrival, mean_gap = "exponential", float(arrival[len("exp:"):])
    elif arrival == "exp":
        arrival = "exponential"

    scenario = SimulationScenario(
        seed=int(resolved["seed"]),
        n_students=int(resolved["students"]),
        graph=graph,
        bank_spec=ItemBankSpec(
            items_per_concept=int(resolved["items_per_concept"]),
            discrimination_range=_parse_pair(resolved["alpha_range"], "--alpha-range"),
            difficulty_range=_parse_pair(resolved["beta_range"], "--beta-range"),
        ),
        true_temporal=TemporalConfig(float(resolved["nu2"]), clock, spu),
        lam=float(resolved["lam"]),
        gamma=float(resolved["gamma"]),
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
        "run_config": _run_config("simulate", resolved),
        "summary": result.dataset.summary(),
        "n_items": len(result.bank),
    })
    stats = result.dataset.summary()
    print(f"wrote {stats['n_responses']} responses from {stats['n_students']} students "
          f"on {stats['n_items']} items to {out_dir}")
    return 0


CALIBRATE_DEFAULTS = {
    "data": None, "out": None, "format": "csv", "strict": False,
    "concept_map": None, "true_bank": None,
    "max_rounds": 50, "delta": 1e-5, "floor": 0.01,
    "no_preprocess": False, "min_responses": 5, "max_attempts": 4,
}


def cmd_calibrate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, CALIBRATE_DEFAULTS)
    _require(resolved, "data", "out")
    data = _load_dataset(resolved)
    config = CalibrationConfig(
        max_outer_rounds=int(resolved["max_rounds"]),
        convergence_delta=float(resolved["delta"]),
        discrimination_floor=float(resolved["floor"]),
    )
    concept_map = (
        _concept_map_from_file(resolved["concept_map"])
        if resolved["concept_map"] else None
    )
    bank = calibrate(data, config, concept_map=concept_map)
    bank.save_csv(resolved["out"])

    log = {
        "format_version": CLI_FORMAT_VERSION,
        "run_config": _run_config("calibrate", resolved),
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


EVALUATE_DEFAULTS = {
    "data": None, "bank": None, "graph": None, "model": None,
    "nu2": None, "lam": None, "gamma": None, "clock": "step",
    "buckets": 10, "solver_tolerance": 1e-8, "solver_max_iterations": 100,
    "format": "csv", "strict": False, "out": None,
    "no_preprocess": False, "min_responses": 5, "max_attempts": 4,
}


def _build_variants(resolved: dict) -> list[ModelVariant]:
    names = _models_list(resolved["model"])
    overrides = {
        k: (None if resolved[k] is None else float(resolved[k]))
        for k in ("nu2", "lam", "gamma")
    }
    return [ModelVariant.from_name(name, **overrides) for name in names]


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, EVALUATE_DEFAULTS)
    _require(resolved, "data", "bank")
    data = _load_dataset(resolved)
    bank = ItemBank.load_csv(resolved["bank"])
    graph = load_graph(resolved["graph"]) if resolved["graph"] else None
    clock, spu = _parse_clock(resolved["clock"])
    solver = SolverConfig(
        gradient_tolerance=float(resolved["solver_tolerance"]),
        max_iterations=int(resolved["solver_max_iterations"]),
    )
    variants = _build_variants(resolved)
    reports = [
        run_online_evaluation(
            data, bank, variant, prior_graph=graph, solver=solver,
            n_buckets=int(resolved["buckets"]), clock=clock, seconds_per_unit=spu,
        )
        for variant in variants
    ]
    print(summary_table(reports))
    if resolved["out"]:
        out_dir = Path(resolved["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        run_config = _run_config("evaluate", resolved)
        for report in reports:
            write_report_json(report, out_dir / f"report_{report.model}.json", run_config)
        write_bucket_tsv(reports, out_dir / "buckets.tsv", run_config)
        print(f"reports written to {out_dir}")
    return 0


SWEEP_DEFAULTS = {
    "data": None, "bank": None, "graph": None, "model": "tskirt",
    "nu2_grid": None, "lambda_grid": None, "gamma_grid": None,
    "clock": "step", "solver_tolerance": 1e-8, "solver_max_iterations": 100,
    "format": "csv", "strict": False, "out": None,
    "no_preprocess": False, "min_responses": 5, "max_attempts": 4,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(args, SWEEP_DEFAULTS)
    _require(resolved, "data", "bank")
    base = str(resolved["model"])
    if base == "spc":
        raise DataError("spc has no hyperparameters to sweep")
    default = ModelVariant.from_name(base)
    nu2_grid = _parse_grid(resolved["nu2_grid"]) if resolved["nu2_grid"] is not None else [default.nu2]
    lam_grid = _parse_grid(resolved["lambda_grid"]) if resolved["lambda_grid"] is not None else [default.lam]
    gamma_grid = (_parse_grid(resolved["gamma_grid"])
                  if resolved["gamma_grid"] is not None else [default.gamma])

    data = _load_dataset(resolved)
    bank = ItemBank.load_csv(resolved["bank"])
    graph = load_graph(resolved["graph"]) if resolved["graph"] else None
    clock, spu = _parse_clock(resolved["clock"])
    solver = SolverConfig(
        gradient_tolerance=float(resolved["solver_tolerance"]),
        max_iterations=int(resolved["solver_max_iterations"]),
    )

    rows = []
    for nu2, lam, gamma in itertools.product(nu2_grid, lam_grid, gamma_grid):
        variant = ModelVariant.from_name(base, nu2=nu2, lam=lam, gamma=gamma)
        report = run_online_evaluation(
            data, bank, variant, prior_graph=graph, solver=solver,
            n_buckets=1, clock=clock, seconds_per_unit=spu,
        )
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
            "run_config": _run_config("sweep", resolved),
            "results": rows,
            "best": best,
        })
    return 0


PREDICT_DEFAULTS = {
    "history": None, "bank": None, "graph": None, "model": "tskirt",
    "nu2": None, "lam": None, "gamma": None, "clock": "step",
    "student": None, "items": None, "now": None,
    "format": "csv", "strict": False, "out": None,
}


def cmd_predict(args: argparse.Namespace) -> int:
    resolved = _resolve(args, PREDICT_DEFAULTS)
    _require(resolved, "history", "bank", "items")
    bank = ItemBank.load_csv(resolved["bank"])
    graph = load_graph(resolved["graph"]) if resolved["graph"] else None
    clock, spu = _parse_clock(resolved["clock"])
    data = load_interactions(resolved["history"], format=resolved["format"],
                             strict=bool(resolved["strict"]))
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

    base = str(resolved["model"])
    overrides = {k: (None if resolved[k] is None else float(resolved[k]))
                 for k in ("nu2", "lam", "gamma")}
    variant = ModelVariant.from_name(base, **overrides)
    item_names = (resolved["items"].split(",") if isinstance(resolved["items"], str)
                  else list(resolved["items"]))
    item_names = [s.strip() for s in item_names if s.strip()]
    if not item_names:
        raise DataError("no candidate items given")
    for name in item_names:
        if name not in bank:
            raise DataError(f"item {name!r} is not in the bank")

    # history events; bank-unknown items drop out of the stream as in evaluation
    events = []
    n_skipped = 0
    for rec in records:
        if rec.item_id not in bank:
            n_skipped += 1
            continue
        events.append(ResponseEvent(bank[rec.item_id], rec.correct,
                                    step_index=len(events) + 1,
                                    timestamp=float(rec.timestamp)))
    if n_skipped:
        print(f"warning: {n_skipped} history events on unknown items ignored",
              file=sys.stderr)

    temporal = TemporalConfig(variant.nu2, clock, spu)
    if resolved["now"] is not None:
        now = float(resolved["now"])
    elif clock == "step":
        now = float(len(events) + 1)
    else:
        now = (events[-1].timestamp / spu) if events else 0.0

    predictions = []
    if variant.is_spc:
        k = sum(ev.correct for ev in events)
        p = 0.5 if not events else k / len(events)
        for name in item_names:
            predictions.append((name, float(p)))
        estimate_info = {"history_fraction_correct": p}
    else:
        if variant.is_scalar:
            prior = ScalarPriorConfig.from_precision_weight(variant.lam)
            estimate = map_estimate_scalar(events, now, temporal, prior)
        else:
            prior = resolve_prior(variant, graph, bank)
            estimate = map_estimate_vector(events, now, temporal, prior)
        for name in item_names:
            predictions.append((name, predict_next(estimate, bank[name])))
        estimate_info = {
            "theta": [float(x) for x in estimate.theta],
            "concept_ids": (list(estimate.concept_ids)
                            if estimate.concept_ids is not None else None),
            "converged": bool(estimate.converged),
            "iterations": int(estimate.iterations),
        }

    for name, p in predictions:
        print(f"{name}\t{format(p, '.17g')}")
    if resolved["out"]:
        _write_json(resolved["out"], {
            "format_version": CLI_FORMAT_VERSION,
            "run_config": _run_config("predict", resolved),
            "model": variant.kind,
            "hyperparameters": variant.hyperparameters(),
            "now": now,
            "n_history_events": len(events),
            "n_skipped_history_events": n_skipped,
            "estimate": estimate_info,
            "predictions": [{"item_id": n, "probability": p} for n, p in predictions],
        })
    return 0


# -- parser wiring ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, preprocessing: bool) -> None:
    p.add_argument("--config", help="YAML config file; flags override its values")
    p.add_argument("--format", choices=["csv", "jsonl"], help="interaction file format")
    p.add_argument("--strict", action="store_true", default=None,
                   help="fail on malformed rows instead of skipping them")
    if preprocessing:
        p.add_argument("--no-preprocess", action="store_true", default=None,
                       help="skip attempt capping and the minimum-response filter")
        p.add_argument("--min-responses", type=int,
                       help="drop students with fewer retained responses (default 5)")
        p.add_argument("--max-attempts", type=int,
                       help="keep only the most recent attempts per student/item pair "
                            "(default 4)")


def _add_hyperparameters(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu2", type=float, help="drift variance per clock unit")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="prior precision weight on each proficiency")
    p.add_argument("--gamma", type=float,
                   help="prerequisite coupling weight (vector models)")


def _add_model_options(p: argparse.ArgumentParser, *, multi: bool) -> None:
    if multi:
        p.add_argument("--model", action="append", choices=list(MODEL_KINDS),
                       help="model variant; repeat for several (default tskirt)")
    else:
        p.add_argument("--model", choices=list(MODEL_KINDS),
                       help="model variant (default tskirt)")
    p.add_argument("--clock", help="'step' or 'wall:<seconds_per_unit>'")
    p.add_argument("--graph", help="concept graph file")
    p.add_argument("--bank", help="item bank CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogive",
        description="Online proficiency estimation and next-response prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--seed", type=int)
    p.add_argument("--students", type=int)
    p.add_argument("--concepts", type=int,
                   help="size of the default chain graph (ignored with --graph)")
    p.add_argument("--graph", help="concept graph file (default: a chain)")
    p.add_argument("--items-per-concept", type=int)
    p.add_argument("--responses", help="events per student: N or lo:hi")
    p.add_argument("--alpha-range", help="true discrimination range lo:hi")
    p.add_argument("--beta-range", help="true difficulty range lo:hi")
    _add_hyperparameters(p)
    p.add_argument("--clock")
    p.add_argument("--assignment", help="'uniform' or 'blocks:<length>'")
    p.add_argument("--coupling", choices=["independent", "prior_shaped"],
                   help="drift step coupling across concepts")
    p.add_argument("--arrival", help="'unit' or 'exp:<mean_seconds>'")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config")
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit item parameters on a training split")
    p.add_argument("--data", help="training interaction log")
    p.add_argument("--out", help="output bank CSV path")
    p.add_argument("--concept-map",
                   help="item-to-concept mapping: a bank CSV or item<TAB>concept lines")
    p.add_argument("--true-bank", help="true bank CSV for recovery correlations")
    p.add_argument("--max-rounds", type=int, help="alternating rounds cap (default 50)")
    p.add_argument("--delta", type=float,
                   help="stop when mean absolute parameter change drops below this")
    p.add_argument("--floor", type=float, help="discrimination floor (default 0.01)")
    _add_common(p, preprocessing=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="online next-response evaluation")
    p.add_argument("--data", help="evaluation interaction log")
    _add_model_options(p, multi=True)
    _add_hyperparameters(p)
    p.add_argument("--buckets", type=int,
                   help="percent-correct buckets in the plot table (default 10)")
    p.add_argument("--solver-tolerance", type=float)
    p.add_argument("--solver-max-iterations", type=int)
    p.add_argument("--out", help="output directory for reports")
    _add_common(p, preprocessing=True)
    p.set_defaults(func=cmd_evaluate)

    # no abbreviations: --nu2, --lambda and --gamma would match the grid flags
    p = sub.add_parser("sweep", help="grid search hyperparameters on a tuning split",
                       allow_abbrev=False)
    p.add_argument("--data", help="tuning interaction log (keep the eval split out)")
    _add_model_options(p, multi=False)
    p.add_argument("--nu2-grid", help="comma-separated drift variances")
    p.add_argument("--lambda-grid", dest="lambda_grid", help="comma-separated weights")
    p.add_argument("--gamma-grid", help="comma-separated coupling weights")
    p.add_argument("--solver-tolerance", type=float)
    p.add_argument("--solver-max-iterations", type=int)
    p.add_argument("--out", help="output JSON path")
    _add_common(p, preprocessing=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="probabilities for candidate next items")
    p.add_argument("--history", help="one student's interaction log")
    p.add_argument("--student", help="student id when the file holds several")
    _add_model_options(p, multi=False)
    _add_hyperparameters(p)
    p.add_argument("--items", help="comma-separated candidate item ids")
    p.add_argument("--now", type=float,
                   help="prediction time in clock units "
                        "(default: one step after the history, or its last timestamp)")
    p.add_argument("--out", help="output JSON path")
    _add_common(p, preprocessing=False)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
