import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dickelab
from dickelab import (
    AtomSpec,
    ConfigError,
    DickeModel,
    ladder,
    model_from_dict,
    trk_report,
    two_level,
)
from dickelab.model import single_atom_matrices


def test_atom_spec_validation():
    ok = AtomSpec([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    assert ok.d == 2
    assert ok.coupling(0, 1) == 0.5
    with pytest.raises(ValueError, match="at least 2"):
        AtomSpec([0.0], [[0.0]])
    with pytest.raises(ValueError, match="must be 0"):
        AtomSpec([0.5, 1.0], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="ascending"):
        AtomSpec([0.0, 2.0, 1.0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        AtomSpec([0.0, 1.0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="diagonal"):
        AtomSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        AtomSpec([0.0, 1.0], [[0.0, 0.3], [0.4, 0.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="energies must be finite"):
            AtomSpec([0.0, bad], [[0.0, 0.5], [0.5, 0.0]])
    # a nan coupling is not reported as an asymmetry (nan != nan)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="couplings must be finite"):
            AtomSpec([0.0, 1.0], [[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="couplings must be finite"):
            two_level(1.0, 1.0, bad, n_atoms=2)
        with pytest.raises(ValueError, match="couplings must be finite"):
            ladder(1.0, 1.0, 2.0, 0.1, 1.5).with_couplings({(0, 2): bad})


def test_atom_spec_immutable():
    atom = AtomSpec([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        atom.energies[1] = 3.0
    with pytest.raises(ValueError):
        atom.couplings[0, 1] = 3.0


def test_with_couplings_symmetric_update():
    atom = AtomSpec([0.0, 1.0, 2.0], np.zeros((3, 3)))
    updated = atom.with_couplings({(1, 2): 0.7})
    assert updated.coupling(1, 2) == 0.7
    assert updated.coupling(2, 1) == 0.7
    assert atom.coupling(1, 2) == 0.0
    with pytest.raises(ValueError, match="diagonal"):
        atom.with_couplings({(1, 1): 0.1})
    # a negative index is out of range, not wrapped around to (0, 2)
    with pytest.raises(ValueError, match=r"\(-1, 0\).*out of range"):
        atom.with_couplings({(-1, 0): 0.7})
    # a float or bool index would reach numpy as a bad or boolean index
    for pair in [(0.5, 1), (1.0, 2), (True, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"{pair}: level indices must be integers")):
            atom.with_couplings({pair: 0.3})
    numpy_pair = atom.with_couplings({(np.int64(2), np.int32(1)): 0.7})
    assert np.array_equal(numpy_pair.couplings, updated.couplings)


def test_model_validation():
    atom = AtomSpec([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="omega"):
        DickeModel(-1.0, atom)
    with pytest.raises(ValueError, match="omega"):
        DickeModel(0.0, atom)
    with pytest.raises(ValueError, match="kappa"):
        DickeModel(1.0, atom, kappa=-0.1)
    with pytest.raises(ValueError, match="n_atoms"):
        DickeModel(1.0, atom, n_atoms=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="omega"):
            DickeModel(bad, atom)
        with pytest.raises(ValueError, match="kappa"):
            DickeModel(1.0, atom, kappa=bad)
    m = DickeModel(2.0, atom, kappa=0.25)
    assert m.omega_eff == 3.0
    # a huge but finite omega is a model; its energies overflow only in ED
    for omega in (1e200, 1e308):
        assert DickeModel(omega, atom).omega == omega


def test_models_compare_and_hash_by_value():
    a, b = two_level(1.0, 1.0, 0.5, n_atoms=4), two_level(1.0, 1.0, 0.5, n_atoms=4)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    # -0.0 == 0.0, so the two must hash alike
    neg, pos = ladder(1.0, 1.0, 2.0, -0.0, 1.5), ladder(1.0, 1.0, 2.0, 0.0, 1.5)
    assert neg == pos and hash(neg) == hash(pos)
    for other in (two_level(2.0, 1.0, 0.5, n_atoms=4), two_level(1.0, 1.5, 0.5, n_atoms=4),
                  two_level(1.0, 1.0, 0.4, n_atoms=4), two_level(1.0, 1.0, 0.5, n_atoms=5),
                  two_level(1.0, 1.0, 0.5, kappa=0.1, n_atoms=4), ladder(1.0, 1.0, 2.0, 0.5, 0.0)):
        assert a != other
    assert a.atom != "atom"


def test_builders():
    m = two_level(1.0, 0.8, 0.4, kappa=0.1, n_atoms=6)
    assert m.atom.d == 2
    assert m.atom.energies[1] == 0.8
    assert m.atom.coupling(0, 1) == 0.4
    assert m.n_atoms == 6

    lad = ladder(1.0, 1.0, 2.0, 0.1, 1.5)
    assert lad.atom.d == 3
    assert lad.atom.coupling(0, 1) == 0.1
    assert lad.atom.coupling(1, 2) == 1.5
    assert lad.atom.coupling(0, 2) == 0.0


def test_single_atom_matrix():
    atom = AtomSpec([0.0, 1.0, 2.0], [[0.0, 0.2, 0.0], [0.2, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = single_atom_matrices(atom.energies, atom.couplings, 0.5)
    expected = np.array([[0.0, 0.2, 0.0], [0.2, 1.0, 1.0], [0.0, 1.0, 2.0]])
    np.testing.assert_allclose(m, expected, atol=0)
    # x enters linearly, negative allowed
    np.testing.assert_allclose(single_atom_matrices(atom.energies, atom.couplings, -0.5),
                               2 * np.diag(atom.energies) - m, atol=0)


class TestTrkReport:
    def test_two_level_saturated(self):
        # kappa computed by the same float expression as the bound
        m = two_level(1.0, 0.7, 0.3, kappa=0.3**2 / 0.7)
        rep = trk_report(m)
        assert rep.kappa_min == pytest.approx(0.09 / 0.7, rel=1e-12)
        assert rep.kappa_saturates_ground
        assert rep.unconstrained_transitions == ()

    def test_below_bound(self):
        m = two_level(1.0, 0.7, 0.3, kappa=0.1)
        assert not trk_report(m).kappa_saturates_ground

    def test_excited_transitions_unconstrained(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.2, kappa=0.01)
        rep = trk_report(m)
        assert rep.kappa_min == pytest.approx(0.01, rel=1e-12)
        assert rep.kappa_saturates_ground
        assert rep.unconstrained_transitions == ((1, 2),)

    def test_zero_ground_coupling(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.2)
        rep = trk_report(m)
        assert rep.kappa_min == 0.0
        assert rep.kappa_saturates_ground

    def test_degenerate_ground_transition_rejected(self):
        atom = AtomSpec([0.0, 0.0, 1.0], np.zeros((3, 3)))
        with pytest.raises(ValueError, match="degenerate ground transition"):
            trk_report(DickeModel(1.0, atom))


class TestModelFromDict:
    def base(self):
        return {
            "omega": 1.0,
            "atom": {"energies": [0.0, 1.0],
                     "couplings": [[0.0, 0.5], [0.5, 0.0]]},
        }

    def test_defaults_materialized(self):
        doc = {"atom": self.base()["atom"]}
        m = model_from_dict(doc)
        assert m.omega == 1.0
        assert m.kappa == 0.0
        assert m.n_atoms == 1

    def test_unknown_keys_rejected_with_path(self):
        doc = self.base()
        doc["omga"] = 1.0
        del doc["omega"]
        with pytest.raises(ConfigError, match=r"model\.omga"):
            model_from_dict(doc)
        doc = self.base()
        doc["atom"]["extra"] = 1
        with pytest.raises(ConfigError, match=r"model\.atom\.extra"):
            model_from_dict(doc)

    def test_missing_atom_key_same_under_every_hash_seed(self):
        # the first missing key is named in a fixed order, not in set order
        probe = ("from dickelab import ConfigError, model_from_dict\n"
                 "try:\n    model_from_dict({'atom': {}})\n"
                 "except ConfigError as exc:\n    print(exc.path)\n")
        src = str(Path(dickelab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        paths = set()
        for hash_seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, check=True)
            paths.add(proc.stdout.strip())
        assert paths == {"model.atom.energies"}

    def test_negative_omega_names_field(self):
        doc = self.base()
        doc["omega"] = -1.0
        with pytest.raises(ConfigError, match="omega") as exc:
            model_from_dict(doc)
        assert exc.value.path == "model.omega"

    def test_bad_coupling_shape(self):
        doc = self.base()
        doc["atom"]["couplings"] = [[0.0, 0.5], [0.5, 0.0], [0.0, 0.0]]
        with pytest.raises(ConfigError, match="couplings"):
            model_from_dict(doc)
        # a flat row-major list, complete or not, is not a nested-rows matrix
        for flat in ([0.0, 0.5, 0.5], [0.0, 0.5, 0.5, 0.0]):
            doc["atom"]["couplings"] = flat
            with pytest.raises(ConfigError, match=r"couplings: expected a list of 2 rows"):
                model_from_dict(doc)

    def test_ladder_flag(self):
        doc = {
            "ladder": True,
            "atom": {"energies": [0.0, 1.0, 2.0],
                     "couplings": [[0.0, 0.1, 0.0], [0.1, 0.0, 1.0], [0.0, 1.0, 0.0]]},
        }
        assert model_from_dict(doc).atom.d == 3
        doc["atom"]["couplings"][0][2] = 0.2
        doc["atom"]["couplings"][2][0] = 0.2
        with pytest.raises(ConfigError, match=r"coupling \(0, 2\)"):
            model_from_dict(doc)
        doc2 = {"ladder": True, "atom": self.base()["atom"]}
        with pytest.raises(ConfigError, match="3 levels"):
            model_from_dict(doc2)

    def test_roundtrip(self):
        m = ladder(1.3, 0.9, 2.1, 0.05, 1.4, kappa=0.02, n_atoms=4)
        again = model_from_dict({
            "omega": 1.3, "kappa": 0.02, "n_atoms": 4,
            "atom": {"energies": [0.0, 0.9, 2.1],
                     "couplings": [[0.0, 0.05, 0.0], [0.05, 0.0, 1.4], [0.0, 1.4, 0.0]]},
        })
        assert again.omega == m.omega
        assert again.kappa == m.kappa
        assert again.n_atoms == m.n_atoms
        np.testing.assert_array_equal(again.atom.energies, m.atom.energies)
        np.testing.assert_array_equal(again.atom.couplings, m.atom.couplings)
