"""Run README's CLI pipeline at toy size and print a sha256 of every artifact.

    python3 scripts/artifact_digests.py

simulate -> calibrate -> evaluate (all six models) -> sweep -> predict, each
in-process through `ogive.cli.main`, in a fresh temporary directory.  Every
path is relative to that directory, so the run configurations embedded in the
artifacts are the same bytes in any checkout.  Output: one `sha256  path`
line per file written, then one each for the captured stdout and stderr (which
also record each command line and its exit code).  Two checkouts whose
outputs should be byte-identical print identical lines.  Exits 1 if any
command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ogive import cli  # noqa: E402

HYPERS = ["--nu2", "0.1", "--lambda", "0.5", "--gamma", "1.0", "--clock", "wall:3600"]
INPUTS = ["--bank", "runs/demo/true_bank.csv", "--graph", "runs/demo/graph.txt"]
PIPELINE = [
    ["simulate", "--seed", "7", "--students", "40", "--concepts", "3",
     "--items-per-concept", "4", "--responses", "30", *HYPERS, "--arrival", "exp:2880",
     "--coupling", "prior_shaped", "--out", "runs/demo"],
    ["calibrate", "--data", "runs/demo/interactions.csv",
     "--concept-map", "runs/demo/true_bank.csv", "--true-bank", "runs/demo/true_bank.csv",
     "--max-rounds", "10", "--out", "runs/demo/bank.csv"],
    ["evaluate", "--data", "runs/demo/interactions.csv", *INPUTS,
     *[arg for kind in cli.MODEL_KINDS for arg in ("--model", kind)], *HYPERS,
     "--out", "runs/demo/eval"],
    ["sweep", "--data", "runs/demo/interactions.csv", *INPUTS, "--model", "tskirt",
     "--nu2-grid", "0,0.1", "--lambda-grid", "0.5", "--gamma-grid", "0.5,1.0",
     "--clock", "wall:3600", "--out", "runs/demo/sweep.json"],
    ["predict", "--history", "runs/demo/interactions.csv", "--student", "s0003", *INPUTS,
     "--model", "tskirt", *HYPERS, "--items", "q0001,q0002,q0003",
     "--out", "runs/demo/predict.json"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    out, err = io.StringIO(), io.StringIO()
    failed = False
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in PIPELINE:
                print("$ ogive " + " ".join(argv), file=out)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                print(f"exit {code}", file=out)
                failed |= code != 0
            files = sorted(p for p in Path(".").rglob("*") if p.is_file())
            lines = [f"{_sha256(p.read_bytes())}  {p.as_posix()}" for p in files]
        finally:
            os.chdir(start)
    lines.append(f"{_sha256(out.getvalue().encode())}  <stdout>")
    lines.append(f"{_sha256(err.getvalue().encode())}  <stderr>")
    print("\n".join(lines))
    if failed:
        print(out.getvalue() + err.getvalue(), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
