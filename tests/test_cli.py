import copy
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickelab
from dickelab import (
    AtomSpec,
    DickeModel,
    cli,
    converge_cutoff,
    critical_coupling,
    ed_ground,
    exactdiag,
    meanfield,
    model_from_dict,
    no_go_check,
    scan_order_parameter,
    trk_report,
)
from dickelab.cli import _fail, main, parse_config
from dickelab.errors import ConfigError, ConvergenceError
from dickelab.exactdiag import dump_state
from dickelab.model import _ATOM_KEYS, _MODEL_KEYS
from test_exactdiag import TWO_STEP_MODEL, fail_first_solve_of_step_2

LADDER_E_STAR = -7.0 / 9.0
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
README = ROOT / "README.md"
NAN, INF = float("nan"), float("inf")


def ladder_model(lam12=1.0, lam01=0.0, kappa=0.0):
    return {
        "omega": 1.0,
        "kappa": kappa,
        "atom": {"energies": [0.0, 1.0, 2.0],
                 "couplings": [[0.0, lam01, 0.0],
                               [lam01, 0.0, lam12],
                               [0.0, lam12, 0.0]]},
    }


LADDER_ATOM = AtomSpec([0.0, 1.0, 2.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

# eps_1 = 0: the TRK bound lam_01^2 / eps_1 is undefined
DEGENERATE_MODEL = {"atom": {"energies": [0.0, 0.0, 1.0],
                             "couplings": [[0.0, 0.1, 0.0], [0.1, 0.0, 0.5], [0.0, 0.5, 0.0]]}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# one document per command: run twice for byte identity, and mutated by the
# config-contract property test
DOCS = {
    "scan": {"command": "meanfield-scan", "model": ladder_model(),
             "scan": {"coupling": [1, 2], "values": [1.0, 1.2, 1.4]}},
    "crit": {"command": "critical", "model": ladder_model(),
             "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]}},
    "nogo": {"command": "no-go",
             "model": {"atom": {"energies": [0.0, 1.0],
                                "couplings": [[0.0, 1.0], [1.0, 0.0]]}},
             "scan": {"coupling": [0, 1], "lambda_max": 5.0,
                      "n_points": 100, "kappa_rule": "trk-ground"}},
    "ed": {"command": "ed-ground",
           "model": {**ladder_model(lam12=1.3), "n_atoms": 3},
           "ed": {"n_max": 16, "dump_state": True}},
    "nscan": {"command": "ed-nscan", "model": ladder_model(lam12=1.3),
              "ed": {"n_list": [2, 3]}},
    "cpb": {"command": "cpb-sweet-spot",
            "cpb": {"ec": 1.0, "ej": [0.02, 0.05], "ng": 0.5}},
    "trk": {"command": "trk-check",
            "model": ladder_model(lam01=0.1, kappa=0.01)},
}


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config({
            "command": "critical",
            "model": {"atom": {"energies": [0.0, 1.0],
                               "couplings": [[0.0, 0.5], [0.5, 0.0]]}},
            "scan": {"coupling": [0, 1], "bracket": [0.3, 0.8]},
        })
        assert cfg.model.omega == 1.0
        assert cfg.model.kappa == 0.0

    def test_readme_schema_lists_accepted_keys(self):
        # the README's jsonc example names every key a block accepts, no more
        example = README.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//.*", "", example))
        assert set(doc) == cli._TOP_KEYS
        assert set(doc["model"]) == _MODEL_KEYS
        assert set(doc["model"]["atom"]) == set(_ATOM_KEYS)
        for block in ("scan", "ed", "cpb"):
            accepted = set().union(*(c[block][0] for c in cli._COMMANDS.values() if block in c))
            assert set(doc[block]) == accepted, block
        # and its comments say which keys a command requires
        lines = example.splitlines()
        for blocks in cli._COMMANDS.values():
            for block, keys in blocks.items():
                for key in [block, *(keys[1] if keys else ())]:
                    assert "required" in next(ln for ln in lines if f'"{key}":' in ln), key

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"\$\.unknown"):
            parse_config({"command": "trk-check", "model": ladder_model(),
                          "unknown": 1})

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match=r"\$\.command"):
            parse_config({"command": "solve-everything"})

    def test_stray_block_rejected(self):
        doc = {"command": "cpb-sweet-spot",
               "cpb": {"ec": 1.0, "ej": 0.05, "ng": 0.5},
               "model": ladder_model()}
        with pytest.raises(ConfigError, match=r"\$\.model"):
            parse_config(doc)
        doc2 = {"command": "trk-check", "model": ladder_model(lam01=0.1),
                "ed": {}}
        with pytest.raises(ConfigError, match=r"\$\.ed"):
            parse_config(doc2)

    def test_scan_field_paths(self):
        base = {"command": "critical", "model": ladder_model()}
        with pytest.raises(ConfigError, match=r"\$\.scan"):
            parse_config(base)
        with pytest.raises(ConfigError, match=r"\$\.scan\.coupling"):
            parse_config({**base, "scan": {"bracket": [0.1, 1.0]}})
        with pytest.raises(ConfigError, match=r"\$\.scan\.bracket"):
            parse_config({**base, "scan": {"coupling": [1, 2], "bracket": [1.0]}})
        with pytest.raises(ConfigError, match="out of range"):
            parse_config({**base, "scan": {"coupling": [1, 5], "bracket": [0.1, 1.0]}})

    def test_tie_parsing(self):
        cfg = parse_config({
            "command": "critical", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "bracket": [0.8, 1.6],
                     "tie": {"0,1": 0.05}},
        })
        assert cfg.scan_tie == {(0, 1): 0.05}
        with pytest.raises(ConfigError, match=r"\$\.scan\.tie"):
            parse_config({
                "command": "critical", "model": ladder_model(),
                "scan": {"coupling": [1, 2], "bracket": [0.8, 1.6],
                         "tie": {"zero,one": 0.05}},
            })

    def test_values_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config({
                "command": "meanfield-scan", "model": ladder_model(),
                "scan": {"coupling": [1, 2], "values": [1.2, 1.1]},
            })

    def test_cpb_single_sweep_only(self):
        with pytest.raises(ConfigError, match="at most one"):
            parse_config({"command": "cpb-sweet-spot",
                          "cpb": {"ec": [1.0, 2.0], "ej": [0.1, 0.2], "ng": 0.5}})

    def test_nogo_validation(self):
        base = {"command": "no-go", "model": ladder_model(lam01=0.1)}
        with pytest.raises(ConfigError, match="n_points"):
            parse_config({**base, "scan": {"coupling": [1, 2], "lambda_max": 2.0,
                                           "n_points": 10}})
        with pytest.raises(ConfigError, match="kappa_rule"):
            parse_config({**base, "scan": {"coupling": [1, 2], "lambda_max": 2.0,
                                           "kappa_rule": "sometimes"}})

    def test_trk_requires_nondegenerate_gap(self):
        doc = {"command": "trk-check", "model": DEGENERATE_MODEL}
        with pytest.raises(ConfigError, match="degenerate ground transition"):
            parse_config(doc)

    def test_ed_nscan_needs_n_list(self):
        doc = {"command": "ed-nscan", "model": ladder_model(), "ed": {}}
        with pytest.raises(ConfigError, match=r"\$\.ed\.n_list"):
            parse_config(doc)

    @pytest.mark.parametrize("name, block, key", [
        ("scan", "scan", "coupling"),
        ("scan", "scan", "values"),
        ("crit", "scan", "bracket"),
        ("nogo", "scan", "lambda_max"),
        ("cpb", "cpb", "ng"),
        ("nscan", "ed", "n_list"),
        ("crit", None, "model"),
        ("crit", None, "scan"),
    ])
    def test_missing_required_key(self, name, block, key):
        # every presence check is config_keys's, on the keys _COMMANDS requires
        doc = copy.deepcopy(DOCS[name])
        del (doc[block] if block else doc)[key]
        path = f"$.{block}.{key}" if block else f"$.{key}"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == path and str(exc.value) == f"{path}: missing required key"

    @pytest.mark.parametrize("doc, path, library", [
        ({"command": "meanfield-scan", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "values": [1.2, 1.1]}}, "$.scan.values",
         lambda m: scan_order_parameter(m, (1, 2), [1.2, 1.1])),
        ({"command": "meanfield-scan", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "values": [1.2]}}, "$.scan.values",
         lambda m: scan_order_parameter(m, (1, 2), [1.2])),
        ({"command": "critical", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "bracket": [1.4, 1.0]}}, "$.scan.bracket",
         lambda m: critical_coupling(m, (1, 2), (1.4, 1.0))),
        ({"command": "critical", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "bracket": [1.0]}}, "$.scan.bracket",
         lambda m: critical_coupling(m, (1, 2), (1.0,))),
        ({"command": "no-go", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "lambda_max": 0.0}}, "$.scan.lambda_max",
         lambda m: no_go_check(m, 0.0, which=(1, 2))),
        ({"command": "no-go", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "lambda_max": 2.0, "n_points": 10}}, "$.scan.n_points",
         lambda m: no_go_check(m, 2.0, n_points=10, which=(1, 2))),
        ({"command": "no-go", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "lambda_max": 2.0, "kappa_rule": "sometimes"}},
         "$.scan.kappa_rule",
         lambda m: no_go_check(m, 2.0, which=(1, 2), kappa_rule="sometimes")),
        ({"command": "critical", "model": ladder_model(lam01=0.1),
          "scan": {"coupling": [1, 2], "bracket": [0.8, 1.6], "tie": {"2,1": 0.5}}},
         "$.scan.tie.2,1",
         lambda m: critical_coupling(m, (1, 2), (0.8, 1.6), tie={(2, 1): 0.5})),
        ({"command": "trk-check", "model": DEGENERATE_MODEL}, "$.model.atom.energies",
         trk_report),
        ({"command": "no-go", "model": DEGENERATE_MODEL,
          "scan": {"coupling": [1, 2], "lambda_max": 1.0, "kappa_rule": "trk-ground"}},
         "$.model.atom.energies",
         lambda m: no_go_check(m, 1.0, which=(1, 2), kappa_rule="trk-ground")),
    ], ids=["values-descending", "values-short", "bracket-reversed", "bracket-short",
            "lambda_max", "n_points", "kappa_rule", "tie-on-scanned", "trk-check-degenerate",
            "trk-ground-degenerate"])
    def test_library_rule_message(self, doc, path, library):
        # a rule the library owns is checked once, by the library; the CLI
        # reports the library's own message at the field path
        with pytest.raises(ValueError) as lib:
            library(model_from_dict(doc["model"]))
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == path and str(exc.value) == f"{path}: {lib.value}"

    @pytest.mark.parametrize("key, value, path, library", [
        ("omega", -1, "$.model.omega", lambda: DickeModel(-1.0, LADDER_ATOM)),
        ("kappa", -1, "$.model.kappa", lambda: DickeModel(1.0, LADDER_ATOM, kappa=-1.0)),
        ("n_atoms", 0, "$.model.n_atoms", lambda: DickeModel(1.0, LADDER_ATOM, n_atoms=0)),
        ("energies", [0, 2, 1], "$.model.atom.energies",
         lambda: AtomSpec([0.0, 2.0, 1.0], LADDER_ATOM.couplings)),
        ("energies", [0.5, 1, 2], "$.model.atom.energies",
         lambda: AtomSpec([0.5, 1.0, 2.0], LADDER_ATOM.couplings)),
        ("couplings", [[0, 0.3, 0], [0.4, 0, 1], [0, 1, 0]], "$.model.atom.couplings",
         lambda: AtomSpec(LADDER_ATOM.energies, [[0, 0.3, 0], [0.4, 0, 1], [0, 1, 0]])),
    ], ids=["omega", "kappa", "n_atoms", "energies-unsorted", "energies-offset",
            "couplings-asymmetric"])
    def test_model_rule_names_its_field(self, tmp_path, key, value, path, library):
        # each model value rule is reported at its own field, in error.json
        # too, with the constructor's message
        model = ladder_model()
        (model["atom"] if key in _ATOM_KEYS else model)[key] = value
        with pytest.raises(ValueError) as lib:
            library()
        out = tmp_path / "out"
        assert main([write_config(tmp_path, {"command": "trk-check", "model": model}),
                     "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["path"] == path and record["message"] == f"{path}: {lib.value}"


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "critical", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]},
        })
        assert main([cfg, "-o", str(tmp_path / "out")]) == 0

    def test_config_error_writes_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "nope"})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "ConfigError"
        assert record["exit_code"] == 2
        assert record["path"] == "$.command"
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main([str(path), "-o", str(tmp_path / "out")]) == 2

    def test_integer_too_long_for_json(self, tmp_path):
        # Python's json refuses to convert an integer of more than 4300
        # digits (3.10.7 on); an interpreter without that limit parses it,
        # and the float-range rule rejects the seed
        path = tmp_path / "long.json"
        path.write_text('{"command": "trk-check", "seed": ' + "1" * 5000 + "}")
        out = tmp_path / "out"
        assert main([str(path), "-o", str(out)]) == 2
        expected = "$" if hasattr(sys, "get_int_max_str_digits") else "$.seed"
        assert json.loads((out / "error.json").read_text())["path"] == expected

    def test_missing_file(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 2

    def test_solver_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "critical", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "bracket": [2.0, 3.0]},   # superradiant lo
        })
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "BracketError"

    def test_resource_limit(self, tmp_path):
        doc = {"command": "ed-ground",
               "model": {**ladder_model(lam12=1.5), "n_atoms": 10},
               "ed": {"max_dim": 500}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "ResourceLimitError"

    @pytest.mark.parametrize("command, model, ed", [
        ("ed-ground", {"n_atoms": int(1.5e308)}, {}),
        ("ed-nscan", {}, {"ed": {"n_list": [int(1.5e308)]}}),
    ], ids=["ed-ground", "ed-nscan"])
    def test_first_cutoff_overflow(self, tmp_path, command, model, ed):
        # 4 N x*^2 overflows to inf at this N; the first cutoff must still
        # reach the basis size check
        doc = {"command": command, "model": {**ladder_model(lam12=1.5, lam01=0.1), **model}, **ed}
        out = tmp_path / "out"
        assert main([write_config(tmp_path, doc), "-o", str(out)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "ResourceLimitError" and "max_dim" in record["message"]
        # the 600-digit dimension and the 309-digit N are abbreviated
        assert len(record["message"]) < 300 and "~1.500e+308" in record["message"]

    def test_trk_saturated_ed_ground(self, tmp_path):
        # kappa = lam^2 / eps_1 at n_max 183: in the a basis its even block
        # needed more matvecs than the cap allows, and the run exited 3
        out = tmp_path / "out"
        assert main([str(ROOT / "configs" / "trk_ed_ground.json"), "-o", str(out)]) == 0
        with open(out / "ed.csv") as fh:
            [row] = list(csv.DictReader(fh))
        assert int(row["n_max_used"]) == 183
        assert float(row["e0_per_atom"]) == pytest.approx(0.11109354431620506, abs=1e-13)

    def test_bogoliubov_overflow(self, tmp_path):
        # omega (omega + 4 kappa) overflows here, while omega' does not
        doc = {"command": "ed-ground",
               "model": {"omega": 1e200, "kappa": 1e200, "n_atoms": 2,
                         "atom": {"energies": [0.0, 1.0], "couplings": [[0.0, 0.5], [0.5, 0.0]]}},
               "ed": {"n_max": 4}}
        out = tmp_path / "out"
        code = main([write_config(tmp_path, doc), "-o", str(out)])
        assert code in (0, 3)
        assert (out / "error.json").is_file() == (code == 3)

    def test_diagonal_overflow(self, tmp_path):
        # omega n overflows to inf on photon rows n >= 2: ground_state rejects
        # the matrix before an eigensolver sees it
        doc = {"command": "ed-ground",
               "model": {"omega": 1e308, "kappa": 0.0, "n_atoms": 2,
                         "atom": {"energies": [0.0, 1.0], "couplings": [[0.0, 0.5], [0.5, 0.0]]}},
               "ed": {"n_max": 4}}
        out = tmp_path / "out"
        assert main([write_config(tmp_path, doc), "-o", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "SolverError" and "non-finite" in record["message"]
        assert not (out / "ed.csv").exists()

    def test_cutoff_trace_in_error_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exactdiag, "_CUTOFF_STEPS", 1)
        with pytest.raises(ConvergenceError) as exc:
            converge_cutoff(TWO_STEP_MODEL)
        out = tmp_path / "out"
        assert _fail(out, exc.value, 3) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "ConvergenceError"
        assert record["trace"] == [list(exc.value.trace[0])]
        assert exc.value.best_residual is None and "best_residual" not in record

    def test_failed_cutoff_step_writes_trace(self, tmp_path, monkeypatch):
        # a ConvergenceError in the second cutoff step, not only the
        # sweep's own, records the steps measured before it
        cfg = write_config(tmp_path, {"command": "ed-ground", "model": {
            **ladder_model(lam12=1.0, lam01=0.3), "n_atoms": 20}})
        bases, _ = fail_first_solve_of_step_2(monkeypatch)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 3
        n0 = bases[0].n_max
        monkeypatch.undo()
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "ConvergenceError"
        assert record["trace"] == [[n0, ed_ground(TWO_STEP_MODEL, n0).e0]]
        assert record["best_residual"] == 0.125

    def test_refinement_step_cap(self, tmp_path, monkeypatch):
        # every bracket of this scan needs more than one Newton step
        monkeypatch.setattr(meanfield, "_NEWTON_MAX", 1)
        cfg = write_config(tmp_path, {"command": "meanfield-scan", "model": ladder_model(),
                                      "scan": {"coupling": [1, 2], "values": [1.1, 1.3]}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "SolverError"
        assert "1 steps hit for parameter set 0" in record["message"]

    def test_tolerances_block_rejected(self, tmp_path):
        # the solver tolerances are module constants; a block that spells out
        # their values is an unknown key like any other
        cfg = write_config(tmp_path, {
            "command": "critical", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]},
            "tolerances": {"x_tol": 1e-6, "grid_points": 512, "tol_e": 1e-8},
        })
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["path"] == "$.tolerances" and record["message"].endswith("unknown key")
        assert not (out / "transition.json").exists()

    def test_negative_cutoff(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "ed-ground",
                                      "model": {**ladder_model(), "n_atoms": 3},
                                      "ed": {"n_max": -3}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == "$.ed.n_max"

    @pytest.mark.parametrize("max_dim", [-1, 0])
    def test_max_dim_must_be_positive(self, tmp_path, max_dim):
        cfg = write_config(tmp_path, {"command": "ed-ground",
                                      "model": {**ladder_model(), "n_atoms": 3},
                                      "ed": {"max_dim": max_dim}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == "$.ed.max_dim"

    @pytest.mark.parametrize("command, ed, path", [
        ("ed-nscan", {"n_list": [2, 3], "n_max": 2}, "$.ed.n_max"),
        ("ed-nscan", {"n_list": [2, 3], "dump_state": True}, "$.ed.dump_state"),
        ("ed-ground", {"n_max": 4, "n_list": [2, 3]}, "$.ed.n_list"),
    ])
    def test_ed_key_not_taken_by_command(self, tmp_path, command, ed, path):
        cfg = write_config(tmp_path, {"command": command,
                                      "model": {**ladder_model(), "n_atoms": 2}, "ed": ed})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == path
        assert not (out / "psi0.npz").exists()

    @pytest.mark.parametrize("seed, flags, path", [
        (-1, [], "$.seed"),
        (1, ["--seed", "-7"], "--seed"),
    ])
    def test_negative_seed(self, tmp_path, seed, flags, path):
        # the seed changes no result, but it is still validated input: an
        # integer >= 0, so a config or script that sets it keeps its exit code
        cfg = write_config(tmp_path, {"command": "ed-ground", "seed": seed,
                                      "model": {**ladder_model(lam12=1.5), "n_atoms": 10},
                                      "ed": {"n_max": 60}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out), *flags]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == path

    @pytest.mark.parametrize("key", ["1,2", "2,1"])
    @pytest.mark.parametrize("command, scan", [
        ("meanfield-scan", {"values": [1.2, 1.3]}),
        ("critical", {"bracket": [0.8, 1.6]}),
    ])
    def test_tie_cannot_name_scanned_coupling(self, tmp_path, command, scan, key):
        # a tie on the scanned pair would overwrite the scanned value with r*lam
        cfg = write_config(tmp_path, {
            "command": command, "model": ladder_model(lam01=0.1),
            "scan": {"coupling": [1, 2], **scan, "tie": {"0,1": 0.1, key: 0.5}},
        })
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == f"$.scan.tie.{key}"

    def test_cpb_cutoff_bounded(self, tmp_path):
        # checked before the (2 n_cut + 1)^2 spectrum would be allocated
        cfg = write_config(tmp_path, {"command": "cpb-sweet-spot",
                                      "cpb": {"ec": 1.0, "ej": 0.05, "ng": 0.5, "n_cut": 10**6}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["path"] == "$.cpb" and "at most 1000" in record["message"]

    @pytest.mark.parametrize("command, block, path, limit", [
        ("no-go", {"scan": {"coupling": [1, 2], "lambda_max": 2.0, "n_points": 10**9}},
         "$.scan.n_points", "at most 100000"),
        # a scan takes about 1 kB per value
        ("meanfield-scan", {"scan": {"coupling": [1, 2],
                                     "values": [1.0 + 1e-6 * i for i in range(100_001)]}},
         "$.scan.values", "at most 100000"),
    ])
    def test_mean_field_sizes_bounded(self, tmp_path, command, block, path, limit):
        # checked before 10**9 parameter sets are allocated
        cfg = write_config(tmp_path, {"command": command,
                                      "model": ladder_model(lam01=0.1), **block})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["path"] == path and limit in record["message"]

    def test_max_dim_only_lowers_the_guard(self, tmp_path, monkeypatch):
        # with max_dim 10**12 the 3-atom basis at n_max 10**9 would pass the
        # size check, and assembling H would ask for a 7.45 GiB arange; the
        # stub fails fast should the bound ever stop holding
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver was reached")

        monkeypatch.setattr(cli, "ed_ground", no_solve)
        cfg = write_config(tmp_path, {"command": "ed-ground", "model": {
            "atom": {"energies": [0.0, 1.0], "couplings": [[0.0, 0.5], [0.5, 0.0]]},
            "n_atoms": 3}, "ed": {"n_max": 10**9, "max_dim": 10**12}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["path"] == "$.ed.max_dim"
        assert f"at most {exactdiag.MAX_DIM_DEFAULT}" in record["message"]

    @pytest.mark.parametrize("model, values", [
        (ladder_model(lam01=0.1), [1.0, 1e300]),
        ({**ladder_model(lam01=0.1), "omega": 1e-320}, [1.0, 1.3]),
    ])
    def test_mean_field_overflow(self, tmp_path, model, values):
        cfg = write_config(tmp_path, {"command": "meanfield-scan", "model": model,
                                      "scan": {"coupling": [1, 2], "values": values}})
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_type"] == "SolverError"
        assert "parameter set" in record["message"]

    @pytest.mark.parametrize("doc, path", [
        ({"command": "meanfield-scan", "model": ladder_model(kappa=NAN),
          "scan": {"coupling": [1, 2], "values": [1.0, 1.2]}}, "$.model.kappa"),
        ({"command": "trk-check", "model": ladder_model(lam01=0.1, kappa=NAN)},
         "$.model.kappa"),
        ({"command": "trk-check", "model": ladder_model(lam01=0.1, kappa=10**400)},
         "$.model.kappa"),
        ({"command": "critical", "model": {**ladder_model(), "omega": INF},
          "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]}}, "$.model.omega"),
        ({"command": "critical",
          "model": {"atom": {**ladder_model()["atom"], "energies": [0.0, NAN, 2.0]}},
          "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]}},
         "$.model.atom.energies[1]"),
        ({"command": "meanfield-scan", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "values": [1.0, NAN]}}, "$.scan.values[1]"),
        ({"command": "meanfield-scan", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "values": [1.0, INF]}}, "$.scan.values[1]"),
        ({"command": "critical", "model": ladder_model(),
          "scan": {"coupling": [1, 2], "bracket": [0.8, 1.6], "tie": {"0,1": NAN}}},
         "$.scan.tie.0,1"),
        ({"command": "no-go", "model": ladder_model(lam01=0.1),
          "scan": {"coupling": [1, 2], "lambda_max": INF}}, "$.scan.lambda_max"),
        ({"command": "cpb-sweet-spot", "cpb": {"ec": 1.0, "ej": 0.05, "ng": INF}},
         "$.cpb.ng"),
        ({"command": "cpb-sweet-spot", "cpb": {"ec": 1.0, "ej": NAN, "ng": 0.5}},
         "$.cpb.ej"),
        # integers beyond the float range, which the first-cutoff formula of
        # converge_cutoff cannot take
        ({"command": "ed-ground", "model": {**ladder_model(lam12=1.5), "n_atoms": 10**400}},
         "$.model.n_atoms"),
        ({"command": "ed-nscan", "model": ladder_model(lam12=1.5), "ed": {"n_list": [10**400]}},
         "$.ed.n_list[0]"),
        ({"command": "trk-check", "model": ladder_model(lam01=0.1), "seed": 10**400}, "$.seed"),
        ({"command": "meanfield-scan", "model": ladder_model(lam01=-INF),
          "scan": {"coupling": [1, 2], "values": [1.0, 1.2]}}, "$.model.atom.couplings[0][1]"),
    ])
    def test_non_finite_number(self, tmp_path, doc, path):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["path"] == path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)
NEW_KEYS = st.sampled_from(["model", "scan", "ed", "cpb", "seed", "tie", "n_max", "n_list",
                            "dump_state", "unknown"]) | st.text(max_size=4)


def _slots(node):
    """(container, key) of every value below node."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield node, key
        yield from _slots(child)


class TestConfigContract:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(DOCS)), data=st.data())
    def test_mutated_document_parses_or_raises_config_error(self, name, data):
        # one mutation: replace a value, delete a key or add a key
        doc = copy.deepcopy(DOCS[name])
        slots = list(_slots(doc))
        mutation = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if mutation == "replace":
            container, key = data.draw(st.sampled_from(slots))
            container[key] = data.draw(JSON_VALUES)
        else:
            mapping = data.draw(st.sampled_from(
                [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]))
            if mutation == "delete":
                del mapping[data.draw(st.sampled_from(sorted(mapping)))]
            else:
                mapping[data.draw(NEW_KEYS)] = data.draw(JSON_VALUES)
        try:
            parse_config(doc)
        except ConfigError:
            pass


class TestArtifacts:
    def test_manifest_checksums(self, tmp_path):
        cfg_doc = {
            "command": "meanfield-scan", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "values": [1.0, 1.1, 1.2, 1.3]},
        }
        cfg = write_config(tmp_path, cfg_doc)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "meanfield-scan"
        assert manifest["config"] == cfg_doc
        assert sorted(manifest) == ["artifact_version", "command", "config", "outputs",
                                    "wall_time_s"]
        assert manifest["wall_time_s"] >= 0.0
        digest = hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["scan.csv"] == f"sha256:{digest}"

    def test_scan_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "meanfield-scan", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "values": [1.0, 1.3]},
        })
        out = tmp_path / "out"
        main([cfg, "-o", str(out)])
        with open(out / "scan.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coupling", "x_star", "e_star",
                           "pop_0", "pop_1", "pop_2", "n_local_minima"]
        assert float(rows[2][1]) > 1.0    # superradiant at 1.3

    def test_transition_json(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "critical", "model": ladder_model(),
            "scan": {"coupling": [1, 2], "bracket": [1.0, 1.4]},
        })
        out = tmp_path / "out"
        main([cfg, "-o", str(out)])
        doc = json.loads((out / "transition.json").read_text())
        assert doc["order"] == "first"
        assert doc["coupling_value"] == pytest.approx(1.2071067811865475, abs=1e-6)
        # the Newton search: bisection would take 2 + 27 + 2 solves here
        assert sorted(doc) == ["coupling_value", "delta_rel", "order", "pop_jump", "solves",
                               "x_jump"]
        assert doc["solves"] <= 12

    def test_seed_has_no_effect(self, tmp_path):
        # lam01 = 0: three blocks of its cutoff ladder have no warm,
        # mean-field or partner weight and start from _lanczos's fixed vector
        config = str(ROOT / "configs" / "ladder_ed_ground.json")
        outs = [tmp_path / f"seed{seed}" for seed in (1, 99)]
        for out, seed in zip(outs, (1, 99)):
            assert main([config, "-o", str(out), "--seed", str(seed)]) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == ["ed.csv", "manifest.json", "psi0.npz"]
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in ("ed.csv", "psi0.npz"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
        for manifest in manifests:
            assert "seed" not in manifest
            del manifest["wall_time_s"]
        assert manifests[0] == manifests[1]

    def test_trk_json(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "trk-check", "model": ladder_model(lam01=0.1, kappa=0.01),
        })
        out = tmp_path / "out"
        main([cfg, "-o", str(out)])
        doc = json.loads((out / "trk.json").read_text())
        assert doc["kappa_saturates_ground"] is True
        assert doc["unconstrained_transitions"] == [[1, 2]]

    def test_nogo_json(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "no-go",
            "model": {"atom": {"energies": [0.0, 1.0],
                               "couplings": [[0.0, 1.0], [1.0, 0.0]]}},
            "scan": {"coupling": [0, 1], "lambda_max": 10.0,
                     "kappa_rule": "trk-ground"},
        })
        out = tmp_path / "out"
        main([cfg, "-o", str(out)])
        doc = json.loads((out / "nogo.json").read_text())
        assert doc["no_transition"] is True
        assert doc["kappa_rule"] == "trk-ground"

    def test_cpb_sweep_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "cpb-sweet-spot",
            "cpb": {"ec": 1.0, "ej": [0.02, 0.05, 0.1], "ng": 0.5},
        })
        out = tmp_path / "out"
        main([cfg, "-o", str(out)])
        with open(out / "cpb.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert [float(r[1]) for r in rows[1:]] == [0.02, 0.05, 0.1]

    def test_ed_ground_with_state_dump(self, tmp_path):
        doc = {"command": "ed-ground",
               "model": {**ladder_model(lam12=1.3), "n_atoms": 3},
               "ed": {"n_max": 20, "dump_state": True}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 0
        assert (out / "ed.csv").exists()
        assert (out / "psi0.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"ed.csv", "psi0.npz"}

    def test_state_dump_matches_dump_with_basis(self, tmp_path):
        doc = DOCS["ed"]
        out = tmp_path / "out"
        assert main([write_config(tmp_path, doc), "-o", str(out)]) == 0
        model = model_from_dict(doc["model"])
        res = ed_ground(model, doc["ed"]["n_max"])
        dump_state(tmp_path / "ref.npz", res)
        assert (out / "psi0.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()

    @pytest.mark.parametrize("n_atoms", [20, 30])
    def test_isolated_zero_energy_ground_state(self, tmp_path, n_atoms):
        # lam01 = 0: vacuum x all-ground is an exact E = 0 eigenstate; ARPACK
        # missed it (N=30) or broke down when warm-started from it (N=20)
        doc = {"command": "ed-ground",
               "model": {**ladder_model(lam12=0.8), "n_atoms": n_atoms}}
        out = tmp_path / "out"
        assert main([write_config(tmp_path, doc), "-o", str(out)]) == 0
        with open(out / "ed.csv") as fh:
            [row] = list(csv.DictReader(fh))
        assert abs(float(row["e0_per_atom"])) <= 1e-12
        assert float(row["parity"]) == pytest.approx(1.0, abs=1e-12)

    def test_ed_nscan_rows_and_trend(self, tmp_path):
        doc = {"command": "ed-nscan", "model": ladder_model(lam12=1.5),
               "ed": {"n_list": [4, 6, 8]}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([cfg, "-o", str(out)]) == 0
        with open(out / "ed.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert [int(r[0]) for r in rows[1:]] == [4, 6, 8]
        gaps = [abs(float(r[5]) - LADDER_E_STAR) for r in rows[1:]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_ed_nscan_solves_mean_field_once(self, tmp_path, monkeypatch):
        calls = []
        minimize = meanfield.minimize

        def counting(model, *args, **kwargs):
            calls.append(model.n_atoms)
            return minimize(model, *args, **kwargs)

        monkeypatch.setattr(meanfield, "minimize", counting)
        monkeypatch.setattr(cli, "minimize", counting)
        cfg = write_config(tmp_path, {**DOCS["nscan"], "ed": {"n_list": [2, 3, 4]}})
        assert main([cfg, "-o", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_example_config(self, tmp_path, config):
        out = tmp_path / "out"
        assert main([str(config), "-o", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs
        for name, checksum in outputs.items():
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert checksum == f"sha256:{digest}", name


class TestDeterminism:
    def run_twice(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([cfg, "-o", str(out)]) == 0
            outs.append(out)
        return outs

    def compare(self, a, b):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name == "manifest.json":
                ma = json.loads((a / name).read_text())
                mb = json.loads((b / name).read_text())
                ma.pop("wall_time_s"), mb.pop("wall_time_s")
                assert ma == mb
            else:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_all_commands_byte_identical(self, tmp_path):
        for name, doc in DOCS.items():
            sub = tmp_path / name
            sub.mkdir()
            a, b = self.run_twice(sub, doc)
            self.compare(a, b)


# Runs each document through cli.main in one fresh interpreter and prints,
# after the import and after each run, the exit code and the scipy modules
# loaded so far.
_IMPORT_PROBE = """
import json, sys
from pathlib import Path
from dickelab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = Path(sys.argv[1])
loaded = {"import": [0, scipy_modules()]}
for name, doc in json.loads(sys.argv[2]).items():
    cfg = out / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    loaded[name] = [main([str(cfg), "-o", str(out / name)]), scipy_modules()]
print(json.dumps(loaded))
"""


def test_scipy_loaded_only_by_ed(tmp_path):
    # a subprocess, because test_exactdiag and test_cpb import scipy here
    src = str(Path(dickelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    docs = {name: DOCS[name] for name in ("crit", "scan", "nogo", "trk", "cpb", "ed")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), json.dumps(docs)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    loaded = json.loads(proc.stdout)
    for name in ("import", "crit", "scan", "nogo", "trk", "cpb"):
        assert loaded[name] == [0, []], name
    code, ed_modules = loaded["ed"]
    assert code == 0 and "scipy.sparse" in ed_modules
