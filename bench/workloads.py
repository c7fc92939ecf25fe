"""Workloads of the dickelab benchmark: CLI config documents and output checks.

Each workload is a fixed list of jobs.  A job is one CLI run: a config
document, the exit code it must give, and a check of its artifacts.  The
physical parameters are fixed, so every result must be independent of the
Lanczos seed; the workload seed only sets the CLI --seed and the run order.

Checks compare against closed forms where one exists and otherwise against
bench/refs.json, which bench/make_refs.py regenerates from the package.
This module imports numpy and dickelab only inside the checks, so that the
benchmark can time the package import as part of set-up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

E0_TOL = 1e-7            # |e0/N - reference|
RESIDUAL_TOL = 1e-6      # ||H psi - e0 psi|| / |e0| from psi0.npz
PARITY_TOL = 1e-9        # ||<Pi>| - 1|
CRITICAL_RTOL = 1e-7     # bisection stops at 1e-8 of the bracket width
SCAN_E_TOL = 1e-9        # e* against the closed form
SCAN_X_TOL = 1e-4        # x* against the closed form (flat near lam_c)
PROBE_MAX_S = 10.0       # the resource-limit probe must fail at once

LADDER_EPS = [0.0, 1.0, 2.0]
N_SUPERRADIANT = (10, 20, 30)
N_DENSE = tuple(range(2, 17))
N_PROBE = 80
PROBE_MAX_DIM = 2_000_000   # below 2,427,651, the N=80 dim at its first cutoff


@dataclass(frozen=True)
class Job:
    name: str
    config: dict
    kind: str                      # which check applies
    expect: dict = field(default_factory=dict)
    exit_code: int = 0


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    parity_odd: int = 0


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------

def ladder_model(lam01: float, lam12: float, kappa: float = 0.0,
                 n_atoms: int = 1) -> dict:
    return {"omega": 1.0, "kappa": kappa, "n_atoms": n_atoms, "ladder": True,
            "atom": {"energies": LADDER_EPS,
                     "couplings": [[0.0, lam01, 0.0],
                                   [lam01, 0.0, lam12],
                                   [0.0, lam12, 0.0]]}}


def two_level_model(lam: float, kappa: float = 0.0) -> dict:
    return {"omega": 1.0, "kappa": kappa,
            "atom": {"energies": [0.0, 1.0], "couplings": [[0.0, lam], [lam, 0.0]]}}


def vtype_model() -> dict:
    """Couplings 0-1 and 0-2: k - j = 2 breaks photon parity (full-H path)."""
    return {"omega": 1.0,
            "atom": {"energies": [0.0, 1.0, 1.5],
                     "couplings": [[0.0, 0.35, 0.3],
                                   [0.35, 0.0, 0.0],
                                   [0.3, 0.0, 0.0]]}}


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# closed forms (mean field, omega = 1, eps_1 = 1)
# ---------------------------------------------------------------------------

def two_level_critical(kappa: float) -> float:
    return math.sqrt(1.0 + 4.0 * kappa) / 2.0


def two_level_star(lam: float) -> tuple[float, float]:
    x2 = lam**2 - 1.0 / (16.0 * lam**2)
    if x2 <= 0:
        return 0.0, 0.0
    x = math.sqrt(x2)
    return x, x2 + 0.5 - math.sqrt(0.25 + 4.0 * lam**2 * x2)


# ladder with lam01 = 0: s_bar = (eps1 + eps2)/2, delta = (eps2 - eps1)/2
_S_BAR, _DELTA = 1.5, 0.5
_U_C = 0.5 * (_S_BAR + math.sqrt(_S_BAR**2 - _DELTA**2))


def ladder_critical(kappa: float) -> float:
    return math.sqrt((1.0 + 4.0 * kappa) * _U_C)


def ladder_star(lam12: float) -> tuple[float, float]:
    if lam12 <= ladder_critical(0.0):
        return 0.0, 0.0
    s = 2.0 * lam12**2
    return (math.sqrt(s**2 - _DELTA**2) / (2.0 * lam12),
            -(s**2 - 2.0 * _S_BAR * s + _DELTA**2) / (2.0 * s))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def ed_superradiant() -> list[Job]:
    jobs = [Job(f"ed_ground_N{n}",
                {"command": "ed-ground", "model": ladder_model(0.1, 1.5, n_atoms=n),
                 "ed": {"dump_state": True}},
                kind="ed", expect={"n_list": [n]})
            for n in N_SUPERRADIANT]
    jobs.append(Job(f"probe_N{N_PROBE}",
                    {"command": "ed-ground",
                     "model": ladder_model(0.1, 1.5, n_atoms=N_PROBE),
                     "ed": {"dump_state": True, "max_dim": PROBE_MAX_DIM}},
                    kind="resource_limit", exit_code=4))
    return jobs


def ed_small_dense() -> list[Job]:
    models = {"two_level_normal": two_level_model(0.3),
              "two_level_superradiant": two_level_model(0.7),
              "vtype": vtype_model()}
    return [Job(f"nscan_{name}",
                {"command": "ed-nscan", "model": model,
                 "ed": {"n_list": list(N_DENSE)}},
                kind="ed", expect={"n_list": list(N_DENSE)})
            for name, model in models.items()]


LADDER_TIES = (0.0, 0.05, 0.1, 0.2)
KAPPAS = (0.0, 0.05, 0.1)


def meanfield_phase_diagram() -> list[Job]:
    jobs = []
    for tie in LADDER_TIES:
        for kappa in KAPPAS:
            scan = {"coupling": [1, 2], "bracket": [0.5, 2.0]}
            if tie:
                scan["tie"] = {"0,1": tie}
            jobs.append(Job(
                f"critical_ladder_tie{tie}_kappa{kappa}",
                {"command": "critical", "model": ladder_model(0.0, 1.0, kappa), "scan": scan},
                kind="critical",
                expect={"order": "first",
                        "closed_form": ladder_critical(kappa) if tie == 0.0 else None}))
    for kappa in KAPPAS:
        jobs.append(Job(
            f"critical_two_level_kappa{kappa}",
            {"command": "critical", "model": two_level_model(1.0, kappa),
             "scan": {"coupling": [0, 1], "bracket": [0.1, 1.0]}},
            kind="critical",
            expect={"order": "second", "closed_form": two_level_critical(kappa)}))
    jobs.append(Job(
        "scan_two_level",
        {"command": "meanfield-scan", "model": two_level_model(1.0),
         "scan": {"coupling": [0, 1], "values": _linspace(0.3, 1.0, 1000)}},
        kind="scan", expect={"closed_form": "two_level"}))
    jobs.append(Job(
        "scan_ladder",
        {"command": "meanfield-scan", "model": ladder_model(0.0, 1.0),
         "scan": {"coupling": [1, 2], "values": _linspace(1.0, 1.5, 1000)}},
        kind="scan", expect={"closed_form": "ladder"}))
    nogo = [("two_level_trk", two_level_model(1.0), [0, 1], 10.0, "trk-ground", True),
            ("two_level_fixed", two_level_model(1.0, 0.3), [0, 1], 0.7, "fixed", True),
            ("ladder_trk", ladder_model(0.1, 1.0), [1, 2], 3.0, "trk-ground", False)]
    for name, model, coupling, lam_max, rule, expected in nogo:
        jobs.append(Job(
            f"nogo_{name}",
            {"command": "no-go", "model": model,
             "scan": {"coupling": coupling, "lambda_max": lam_max,
                      "n_points": 1000, "kappa_rule": rule}},
            kind="nogo", expect={"no_transition": expected}))
    jobs.append(Job(
        "trk_ladder",
        {"command": "trk-check", "model": ladder_model(0.1, 1.2, 0.01)},
        kind="trk", expect={"kappa_min": 0.1**2, "saturates": True,
                            "unconstrained": [[1, 2]]}))
    jobs.append(Job(
        "cpb_sweet_spot",
        {"command": "cpb-sweet-spot",
         "cpb": {"ec": 1.0, "ej": _linspace(0.002, 0.2, 100), "ng": 0.5}},
        kind="cpb", expect={"rows": 100}))
    return jobs


WORKLOADS = {
    "ed_superradiant": ed_superradiant,
    "ed_small_dense": ed_small_dense,
    "meanfield_phase_diagram": meanfield_phase_diagram,
}


def warmup_job(workload: str) -> Job:
    """One small solve through the same code paths, run during set-up."""
    if workload == "meanfield_phase_diagram":
        return Job("warmup", {"command": "critical", "model": two_level_model(1.0),
                              "scan": {"coupling": [0, 1], "bracket": [0.1, 1.0]}},
                   kind="critical",
                   expect={"order": "second", "closed_form": two_level_critical(0.0)})
    return Job("warmup", {"command": "ed-ground", "model": ladder_model(0.1, 1.5, n_atoms=4),
                          "ed": {"dump_state": True}},
               kind="ed", expect={"n_list": [4]})


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

ARTIFACTS = {"ed-ground": ["ed.csv"], "ed-nscan": ["ed.csv"],
             "critical": ["transition.json"], "meanfield-scan": ["scan.csv"],
             "no-go": ["nogo.json"], "trk-check": ["trk.json"],
             "cpb-sweet-spot": ["cpb.csv"]}


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(job: Job, out: Path) -> None:
    names = list(ARTIFACTS[job.config["command"]])
    if job.config.get("ed", {}).get("dump_state"):
        names.append("psi0.npz")
    manifest_path = out / "manifest.json"
    _require(manifest_path.is_file(), "missing manifest.json")
    outputs = json.loads(manifest_path.read_text())["outputs"]
    _require(sorted(outputs) == sorted(names),
             f"manifest lists {sorted(outputs)}, expected {sorted(names)}")
    for name in names:
        path = out / name
        _require(path.is_file(), f"missing artifact {name}")
        digest = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        _require(outputs[name] == digest, f"checksum mismatch for {name}")


def _relative_residual(job: Job, out: Path, e0: float) -> float:
    import numpy as np
    from dickelab.exactdiag import build_basis, build_hamiltonian
    from dickelab.model import model_from_dict

    with np.load(out / "psi0.npz") as z:
        idx, coef = z["indices"], z["coefficients"]
        n_atoms, d, n_max = int(z["n_atoms"]), int(z["d"]), int(z["n_max"])
    model = model_from_dict(job.config["model"])
    _require(model.n_atoms == n_atoms and model.atom.d == d, "psi0.npz header mismatch")
    basis = build_basis(n_atoms, d, n_max, max_dim=2**62)
    psi = np.zeros(basis.dim)
    psi[idx] = coef
    _require(abs(float(psi @ psi) - 1.0) < 1e-8, "psi0 is not normalized")
    H = build_hamiltonian(model, basis)
    return float(np.linalg.norm(H @ psi - e0 * psi)) / abs(e0)


def _check_ed(job: Job, out: Path, refs: dict, outcome: Outcome) -> None:
    from dickelab.exactdiag import parity_compatible
    from dickelab.model import model_from_dict

    rows = _rows(out / "ed.csv")
    n_list = job.expect["n_list"]
    _require([int(r["N"]) for r in rows] == n_list, f"ed.csv rows are not N={n_list}")
    ref = refs["e0_per_atom"][job.name]
    check_parity = parity_compatible(model_from_dict(job.config["model"]).atom)
    for r in rows:
        n = int(r["N"])
        e0n = float(r["e0_per_atom"])
        _require(abs(e0n - ref[str(n)]) <= E0_TOL,
                 f"N={n}: e0/N {e0n!r} differs from reference {ref[str(n)]!r}")
        if check_parity:
            parity = float(r["parity"])
            _require(abs(abs(parity) - 1.0) <= PARITY_TOL, f"N={n}: |parity| = {abs(parity)!r}")
            outcome.parity_odd += parity < 0
    if job.config["ed"].get("dump_state"):
        (row,) = rows
        e0 = float(row["e0_per_atom"]) * int(row["N"])
        resid = _relative_residual(job, out, e0)
        _require(resid <= RESIDUAL_TOL, f"relative residual {resid:.3g} from psi0.npz")


def _check_critical(job: Job, out: Path, refs: dict) -> None:
    tp = json.loads((out / "transition.json").read_text())
    _require(tp["order"] == job.expect["order"],
             f"order {tp['order']!r}, expected {job.expect['order']!r}")
    want = job.expect["closed_form"]
    if want is None:
        want = refs["critical"][job.name]
    got = tp["coupling_value"]
    _require(abs(got - want) <= CRITICAL_RTOL * want,
             f"critical coupling {got!r}, expected {want!r}")


def _check_scan(job: Job, out: Path) -> None:
    rows = _rows(out / "scan.csv")
    values = job.config["scan"]["values"]
    _require(len(rows) == len(values), f"scan.csv has {len(rows)} rows, expected {len(values)}")
    star = two_level_star if job.expect["closed_form"] == "two_level" else ladder_star
    for value, r in zip(values, rows):
        _require(float(r["coupling"]) == value, f"scan.csv coupling {r['coupling']} out of order")
        x, e = star(value)
        _require(abs(float(r["e_star"]) - e) <= SCAN_E_TOL, f"e* at {value!r}: {r['e_star']}, expected {e!r}")
        _require(abs(float(r["x_star"]) - x) <= SCAN_X_TOL, f"x* at {value!r}: {r['x_star']}, expected {x!r}")


def _check_nogo(job: Job, out: Path) -> None:
    got = json.loads((out / "nogo.json").read_text())["no_transition"]
    _require(got is job.expect["no_transition"],
             f"no_transition {got!r}, expected {job.expect['no_transition']!r}")


def _check_trk(job: Job, out: Path) -> None:
    rep = json.loads((out / "trk.json").read_text())
    _require(abs(rep["kappa_min"] - job.expect["kappa_min"]) <= 1e-15, f"kappa_min {rep['kappa_min']!r}")
    _require(rep["kappa_saturates_ground"] is job.expect["saturates"], "kappa_saturates_ground wrong")
    _require(rep["unconstrained_transitions"] == job.expect["unconstrained"], "unconstrained transitions wrong")


def _check_cpb(job: Job, out: Path) -> None:
    rows = _rows(out / "cpb.csv")
    _require(len(rows) == job.expect["rows"], f"cpb.csv has {len(rows)} rows")
    for r in rows:
        ej = float(r["ej"])
        # charge regime E_J << E_C at ng = 1/2: splitting E_J, <e|n|g> = 1/2
        _require(abs(float(r["omega0_eff"]) - ej) <= 1e-3 * ej, f"splitting at ej={ej!r}")
        _require(float(r["overlap_g"]) >= 0.999 and float(r["overlap_e"]) >= 0.999,
                 f"sweet-spot overlaps at ej={ej!r}")
        _require(abs(float(r["charge_matrix_element"]) - 0.5) <= 1e-3, f"charge element at ej={ej!r}")


def _check_resource_limit(out: Path, seconds: float) -> None:
    err_path = out / "error.json"
    _require(err_path.is_file(), "missing error.json")
    err = json.loads(err_path.read_text())
    _require(err.get("error_type") == "ResourceLimitError", f"error_type {err.get('error_type')!r}")
    _require(err.get("exit_code") == 4, f"error.json exit_code {err.get('exit_code')!r}")
    _require(not (out / "ed.csv").exists(), "wrote ed.csv despite the limit")
    _require(seconds <= PROBE_MAX_S, f"took {seconds:.1f} s to hit the limit")


def check(job: Job, out: Path, exit_code, seconds: float, refs: dict) -> Outcome:
    """Did this CLI run give the right exit code, artifacts and numbers?"""
    outcome = Outcome(ok=True)
    try:
        _require(exit_code == job.exit_code, f"exit code {exit_code}, expected {job.exit_code}")
        if job.kind == "resource_limit":
            _check_resource_limit(out, seconds)
            return outcome
        _check_manifest(job, out)
        if job.kind == "ed":
            _check_ed(job, out, refs, outcome)
        elif job.kind == "critical":
            _check_critical(job, out, refs)
        elif job.kind == "scan":
            _check_scan(job, out)
        elif job.kind == "nogo":
            _check_nogo(job, out)
        elif job.kind == "trk":
            _check_trk(job, out)
        elif job.kind == "cpb":
            _check_cpb(job, out)
        else:
            raise CheckFailed(f"no check for kind {job.kind!r}")
    except CheckFailed as exc:
        outcome.ok, outcome.reason = False, str(exc)
    except Exception as exc:  # unreadable or malformed output fails the run
        outcome.ok, outcome.reason = False, f"{type(exc).__name__}: {exc}"
    return outcome
