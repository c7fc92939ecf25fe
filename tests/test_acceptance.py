"""Acceptance gate: nine end-to-end criteria, one summary line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; plain pytest still enforces every assertion.  Reference
numbers come from tests/oracles.py (closed forms and from-scratch scans,
independent of the solver implementations).
"""

import csv
import hashlib
import json
import math
import time

import numpy as np

import oracles

from dickelab import (
    build_basis,
    build_hamiltonian,
    converge_cutoff,
    critical_coupling,
    ed_ground,
    energy_density,
    ground_state,
    ladder,
    minimize,
    no_go_check,
    scan_order_parameter,
    two_level,
    verify_sweet_spot_states,
    CpbSpec,
    AtomSpec,
    DickeModel,
)
from dickelab.cli import main as cli_main
from dickelab.cpb import cpb_hamiltonian
from dickelab.exactdiag import _bogoliubov, _lanczos


def _report(num, label, checks, elapsed=None):
    """Print one PASS/FAIL line, then fail the test on any bad check."""
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.2f} s]" if elapsed is not None else ""
    print(f"\n[{status}] criterion {num}: {label}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_two_level_critical_coupling():
    rng = np.random.default_rng(101)
    checks = []
    t0 = time.perf_counter()
    for _ in range(10):
        omega = float(rng.uniform(0.5, 2.0))
        omega0 = float(omega * rng.uniform(0.3, 0.9))
        lam_c = oracles.two_level_critical(omega, omega0)
        tp = critical_coupling(two_level(omega, omega0, 0.1), (0, 1),
                               (0.5 * lam_c, 1.8 * lam_c))
        err = abs(tp.coupling_value - lam_c)
        checks.append((err <= 1e-6,
                       f"lam_c off by {err:.2e} at omega={omega:.3f}, omega0={omega0:.3f}"))
        checks.append((tp.order == "second", f"order={tp.order} (want second)"))
        checks.append((tp.x_jump < 0.01, f"x_jump={tp.x_jump:.4f} not < 0.01"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"))
    _report(1, "two-level critical coupling sqrt(omega*omega0)/2, second order",
            checks, elapsed)


def test_criterion_2_ladder_first_order_counterexample():
    model = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
    t0 = time.perf_counter()
    tp = critical_coupling(model, (1, 2), (1.0, 1.4))
    below = minimize(model.with_couplings({(1, 2): tp.coupling_value * (1 - 1e-4)}))
    above = minimize(model.with_couplings({(1, 2): tp.coupling_value * (1 + 1e-4)}))
    elapsed = time.perf_counter() - t0

    # independent check: bisect the same transition on a from-scratch e(x)
    def indep_energy(lam, xs):
        mats = (np.diag([0.0, 1.0, 2.0])
                + 2.0 * xs[:, None, None] * np.array([[0.0, 0.0, 0.0],
                                                      [0.0, 0.0, lam],
                                                      [0.0, lam, 0.0]]))
        return xs**2 + np.linalg.eigvalsh(mats)[:, 0]

    lam_c_scan = oracles.bisect_critical(indep_energy, 1.0, 1.4, 3.0)

    err = abs(tp.coupling_value - oracles.LADDER_LAMBDA_C)
    err_scan = abs(tp.coupling_value - lam_c_scan)
    jump_err = abs(tp.x_jump - oracles.LADDER_X_JUMP)
    checks = [
        (err <= 1e-6, f"lam_c off closed form by {err:.2e}"),
        (err_scan <= 1e-6, f"lam_c off independent scan by {err_scan:.2e}"),
        (tp.order == "first", f"order={tp.order} (want first)"),
        (jump_err <= 1e-3, f"x_jump off by {jump_err:.2e}"),
        (below.occupations[0] > 0.999,
         f"pop_0 below lam_c = {below.occupations[0]:.4f} (want 1)"),
        (above.occupations[0] < 0.5,
         f"pop_0 above lam_c = {above.occupations[0]:.4f} (want < 0.5)"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"),
    ]
    _report(2, "ladder first-order transition at (1+sqrt(2))/2, jump 2^(1/4)",
            checks, elapsed)


def test_criterion_3_first_order_robust_to_small_ground_coupling():
    model = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
    t0 = time.perf_counter()
    tp = critical_coupling(model, (1, 2), (0.8, 1.6), tie={(0, 1): 0.05})
    elapsed = time.perf_counter() - t0
    checks = [
        (tp.order == "first", f"order={tp.order} (want first)"),
        (tp.x_jump > 0.05, f"x_jump={tp.x_jump:.4f} below first-order threshold"),
        (tp.x_jump > 0.5, f"x_jump={tp.x_jump:.4f} unexpectedly small"),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"),
    ]
    _report(3, "first order survives lam01 = 0.05 lam12 co-scaling", checks, elapsed)


def test_criterion_4_two_level_no_go():
    rng = np.random.default_rng(404)
    checks = []
    t0 = time.perf_counter()
    for _ in range(20):
        omega = float(rng.uniform(0.3, 3.0))
        omega0 = float(rng.uniform(0.3, 3.0))
        lam_max = 10.0 * math.sqrt(omega * omega0)
        ok = no_go_check(two_level(omega, omega0, 0.1), lam_max,
                         kappa_rule="trk-ground")
        checks.append((ok, f"transition found at omega={omega:.3f}, omega0={omega0:.3f}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds 10 s"))
    _report(4, "kappa = lam^2/omega0 forbids the two-level transition", checks,
            elapsed)


def test_criterion_5_excited_transition_evades_the_bound():
    # kappa saturating the ground-transition bound for lam01 = 0.1: the full
    # model still condenses through the 1 <-> 2 coupling, and with the
    # 0 <-> 1 channel neutralized the critical point sits exactly where the
    # ladder closed form with stiffened photon omega + 4 kappa puts it.
    kappa = 0.1**2 / 1.0
    full = ladder(1.0, 1.0, 2.0, 0.1, 1.0, kappa=kappa)
    neutralized = ladder(1.0, 1.0, 2.0, 0.0, 1.0, kappa=kappa)
    lam_c_ref = oracles.ladder_critical(1.0 + 4.0 * kappa)

    t0 = time.perf_counter()
    survives = not no_go_check(full, 3.0, which=(1, 2), kappa_rule="fixed")
    tp = critical_coupling(neutralized, (1, 2), (1.0, 1.5))
    elapsed = time.perf_counter() - t0

    err = abs(tp.coupling_value - lam_c_ref)
    checks = [
        (survives, "no transition found although one is expected"),
        (err <= 1e-6, f"lam_c off ladder reference by {err:.2e}"),
        (tp.order == "first", f"order={tp.order} (want first)"),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"),
    ]
    _report(5, "transition survives TRK-saturated kappa; lam_c matches "
               "omega -> omega+4kappa reference", checks, elapsed)


def test_criterion_6_finite_size_trend_toward_mean_field():
    lam12 = 1.5
    e_star = oracles.ladder_e_star(1.0, lam12)
    x2 = oracles.ladder_x_star(1.0, lam12) ** 2
    model = ladder(1.0, 1.0, 2.0, 0.0, lam12)

    t0 = time.perf_counter()
    results = {n: converge_cutoff(model.with_n_atoms(n))
               for n in (4, 6, 8, 10, 12)}
    normal = converge_cutoff(ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=12))
    elapsed = time.perf_counter() - t0

    gaps = [abs(results[n].e0_per_atom - e_star) for n in (4, 6, 8, 10, 12)]
    r12 = results[12]
    photon_rel = abs(r12.photon_density - x2) / x2
    checks = [
        (all(a > b for a, b in zip(gaps, gaps[1:])),
         f"|e0/N - e*| not monotone: {['%.2e' % g for g in gaps]}"),
        (gaps[-1] < 0.05, f"gap at N=12 is {gaps[-1]:.3f} (want < 0.05)"),
        (photon_rel <= 0.25,
         f"photon density {r12.photon_density:.4f} vs x*^2 {x2:.4f} "
         f"({100 * photon_rel:.1f}% off)"),
        (r12.populations[0] < 0.5,
         f"pop_0 = {r12.populations[0]:.4f} above lam_c (want < 0.5)"),
        (normal.populations[0] > 0.95,
         f"pop_0 = {normal.populations[0]:.4f} below lam_c (want > 0.95)"),
        (elapsed < 600.0, f"runtime {elapsed:.1f} s exceeds 10 min"),
    ]
    _report(6, "ED at N = 4..12 approaches mean-field e*, populations jump",
            checks, elapsed)


def test_criterion_7_ed_internal_consistency():
    checks = []
    t0 = time.perf_counter()

    # parity pinned to +-1 on a spread of runs, including quasi-degenerate ones
    runs = [
        converge_cutoff(ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=8)),
        converge_cutoff(ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=8)),
        converge_cutoff(ladder(1.0, 1.0, 2.0, 0.1, 1.3, n_atoms=6)),
        converge_cutoff(two_level(1.0, 1.0, 0.45, n_atoms=8)),
        converge_cutoff(two_level(1.0, 1.0, 1.2, n_atoms=8)),
    ]
    for i, res in enumerate(runs):
        dev = abs(abs(res.parity) - 1.0)
        checks.append((dev <= 1e-8, f"|parity| off 1 by {dev:.2e} on run {i}"))

    # Lanczos against the dense eigensolver on random models, dim <= 2000
    rng = np.random.default_rng(707)
    done = 0
    while done < 20:
        d = int(rng.integers(2, 5))
        n_atoms = int(rng.integers(1, 6))
        n_atomic = math.comb(n_atoms + d - 1, d - 1)
        n_max = min(14, 2000 // n_atomic - 1)
        if n_max < 4:
            continue
        eps = np.sort(np.concatenate([[0.0], rng.uniform(0.3, 2.5, d - 1)]))
        lam = np.zeros((d, d))
        for j in range(d):
            for k in range(j + 1, d):
                lam[j, k] = lam[k, j] = rng.uniform(-1.5, 1.5)
        m = DickeModel(float(rng.uniform(0.5, 2.0)), AtomSpec(eps, lam),
                       n_atoms=n_atoms,
                       kappa=float(rng.uniform(0.0, 0.2)) if rng.random() < 0.3 else 0.0)
        # kappa > 0 as ed_ground solves it: the kappa = 0 model in the
        # Bogoliubov photon basis
        H = build_hamiltonian(_bogoliubov(m)[0], build_basis(n_atoms, d, n_max))
        dense = ground_state(H)
        lanc = _lanczos(H)
        diff = abs(lanc.e0 - dense.e0) / max(1.0, abs(dense.e0))
        checks.append((diff <= 1e-10, f"Lanczos vs dense differ by {diff:.2e}"))
        done += 1

    # basis rank/unrank bijection, exhaustive
    for n_atoms in range(1, 13):
        for d in (2, 3, 4):
            b = build_basis(n_atoms, d, 0)
            good = all(b.rank(b.unrank(r)) == r for r in range(b.n_atomic))
            checks.append((good, f"bijection broken for N={n_atoms}, d={d}"))

    elapsed = time.perf_counter() - t0
    _report(7, "parity = +-1, Lanczos vs dense 1e-10, basis bijection",
            checks, elapsed)


def test_criterion_8_cpb_sweet_spot_states():
    spec = CpbSpec(ec=1.0, ej=0.05, ng=0.5)
    t0 = time.perf_counter()
    rep = verify_sweet_spot_states(spec)

    # gate periodicity and cutoff insensitivity
    w_a = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(CpbSpec(1.0, 0.05, 0.5, n_cut=12))))[:4]
    w_b = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(CpbSpec(1.0, 0.05, 1.5, n_cut=12))))[:4]
    w_c = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(CpbSpec(1.0, 0.05, 0.5, n_cut=17))))[:4]
    elapsed = time.perf_counter() - t0

    split_rel = abs(rep.splitting - 0.05) / 0.05
    checks = [
        (rep.overlap_g >= 0.99, f"overlap_g = {rep.overlap_g:.5f} (want >= 0.99)"),
        (rep.overlap_e >= 0.99, f"overlap_e = {rep.overlap_e:.5f} (want >= 0.99)"),
        (split_rel <= 0.02, f"splitting off E_J by {100 * split_rel:.2f}%"),
        (np.max(np.abs(w_a - w_b)) <= 1e-12,
         f"gate periodicity broken by {np.max(np.abs(w_a - w_b)):.2e}"),
        (np.max(np.abs(w_a - w_c)) <= 1e-10,
         f"cutoff sensitivity {np.max(np.abs(w_a - w_c)):.2e}"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"),
    ]
    _report(8, "CPB sweet-spot states are (|n> +- |n+1>)/sqrt(2), split by E_J",
            checks, elapsed)


def test_criterion_9_cli_determinism(tmp_path):
    ladder_atom = {"energies": [0.0, 1.0, 2.0],
                   "couplings": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.3], [0.0, 1.3, 0.0]]}
    docs = {
        "meanfield-scan": {"command": "meanfield-scan",
                           "model": {"atom": ladder_atom},
                           "scan": {"coupling": [1, 2], "values": [1.0, 1.2, 1.4]}},
        "critical": {"command": "critical", "model": {"atom": ladder_atom},
                     "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]}},
        "no-go": {"command": "no-go",
                  "model": {"atom": {"energies": [0.0, 1.0],
                                     "couplings": [[0.0, 1.0], [1.0, 0.0]]}},
                  "scan": {"coupling": [0, 1], "lambda_max": 5.0,
                           "n_points": 100, "kappa_rule": "trk-ground"}},
        "ed-ground": {"command": "ed-ground",
                      "model": {"n_atoms": 3, "atom": ladder_atom},
                      "ed": {"n_max": 16, "dump_state": True}},
        "ed-nscan": {"command": "ed-nscan", "model": {"atom": ladder_atom},
                     "ed": {"n_list": [2, 3]}},
        "cpb-sweet-spot": {"command": "cpb-sweet-spot",
                           "cpb": {"ec": 1.0, "ej": [0.02, 0.05], "ng": 0.5}},
        "trk-check": {"command": "trk-check", "seed": 7,
                      "model": {"kappa": 0.01,
                                "atom": {"energies": [0.0, 1.0, 2.0],
                                         "couplings": [[0.0, 0.1, 0.0],
                                                       [0.1, 0.0, 1.3],
                                                       [0.0, 1.3, 0.0]]}}},
    }
    checks = []
    t0 = time.perf_counter()
    for name, doc in docs.items():
        workdir = tmp_path / name.replace("-", "_")
        workdir.mkdir()
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(doc))
        digests = []
        for run in ("a", "b"):
            out = workdir / run
            code = cli_main([str(cfg), "-o", str(out)])
            checks.append((code == 0, f"{name} exited {code}"))
            per_file = {}
            for p in sorted(out.iterdir()):
                if p.name == "manifest.json":
                    m = json.loads(p.read_text())
                    m.pop("wall_time_s")           # timing is recorded, not compared
                    per_file[p.name] = json.dumps(m, sort_keys=True)
                else:
                    per_file[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            digests.append(per_file)
        checks.append((digests[0] == digests[1],
                       f"{name} artifacts differ between identical runs"))
    elapsed = time.perf_counter() - t0
    _report(9, "repeated CLI runs are byte-identical for every command",
            checks, elapsed)
