"""Regenerate bench/refs.json: the references that have no closed form.

    python3 bench/make_refs.py

Runs every ED job (e0/N per N) and every critical job without a closed
form through the CLI at seed 1234 and stores the results.  These are
regression references for this code, checked once by hand against the
closed forms and the mean-field limit; regenerate them only when a change
is meant to alter the physics results.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from dickelab.cli import main  # noqa: E402


def main_refs() -> int:
    refs = {"e0_per_atom": {}, "critical": {}}
    jobs = [workloads.warmup_job("ed_small_dense"),
            *(job for make in workloads.WORKLOADS.values() for job in make())]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for job in jobs:
            if job.kind == "ed":
                key = "e0_per_atom"
            elif job.kind == "critical" and job.expect["closed_form"] is None:
                key = "critical"
            else:
                continue
            cfg = Path(tmp) / f"{job.name}.json"
            cfg.write_text(json.dumps(job.config))
            out = Path(tmp) / job.name
            code = main([str(cfg), "-o", str(out), "--seed", "1234"])
            if code != 0:
                print(f"error: {job.name} exited {code}", file=sys.stderr)
                return 1
            if key == "e0_per_atom":
                with open(out / "ed.csv", newline="") as fh:
                    refs[key][job.name] = {r["N"]: float(r["e0_per_atom"])
                                           for r in csv.DictReader(fh)}
            else:
                tp = json.loads((out / "transition.json").read_text())
                refs[key][job.name] = tp["coupling_value"]
            print(job.name, refs[key][job.name], flush=True)
    path = Path(__file__).with_name("refs.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_refs())
