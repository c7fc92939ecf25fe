import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from dickelab import (
    CpbSpec,
    cpb_hamiltonian,
    two_level_reduction,
    verify_sweet_spot_states,
)
from dickelab.cpb import N_CUT_MAX, _spectrum, write_cpb_csv


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="ec"):
            CpbSpec(ec=0.0, ej=0.1, ng=0.5)
        with pytest.raises(ValueError, match="ej"):
            CpbSpec(ec=1.0, ej=-0.1, ng=0.5)
        with pytest.raises(ValueError, match="n_cut"):
            CpbSpec(ec=1.0, ej=0.1, ng=0.5, n_cut=4)
        with pytest.raises(ValueError, match="n_cut"):
            CpbSpec(ec=1.0, ej=0.1, ng=3.5, n_cut=7)   # needs 5 + ceil(3.5) = 9
        # each non-finite field is named before the n_cut rule reads ng; an
        # infinite ec used to construct and give NaN levels, a non-finite ej
        # a LinAlgError, ng nan or inf a conversion error
        for name in ("ec", "ej", "ng"):
            for value in (math.inf, -math.inf, math.nan):
                fields = {"ec": 1.0, "ej": 0.1, "ng": 0.5, name: value}
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    CpbSpec(**fields)

    def test_charge_grid(self):
        spec = CpbSpec(ec=1.0, ej=0.1, ng=0.5, n_cut=6)
        assert spec.dim == 13
        assert spec.charges[0] == -6 and spec.charges[-1] == 6


class TestHamiltonian:
    def test_charge_limit_diagonal(self):
        spec = CpbSpec(ec=1.0, ej=0.0, ng=0.0)
        h = cpb_hamiltonian(spec)
        assert np.all(np.tril(h, -1) == 0) and np.all(np.triu(h, 1) == 0)
        assert not np.signbit(h).any()          # E_J = 0 stores +0.0, never -0.0
        w = np.sort(np.diag(h))
        assert w[0] == 0.0                      # ground state |n=0>
        assert w[1] == w[2] == 4.0              # |+-1> pair

    def test_degenerate_pair_at_sweet_spot(self):
        spec = CpbSpec(ec=1.0, ej=0.0, ng=0.5)
        w = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(spec)))
        assert w[0] == w[1] == pytest.approx(1.0)   # 4 E_C (1/2)^2

    def test_splitting_equals_ej(self):
        spec = CpbSpec(ec=1.0, ej=0.04, ng=0.5)
        w = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(spec)))
        assert w[1] - w[0] == pytest.approx(0.04, abs=1e-6)

    def test_structure(self):
        spec = CpbSpec(ec=0.7, ej=0.3, ng=0.2, n_cut=7)
        h = cpb_hamiltonian(spec)
        np.testing.assert_allclose(np.diag(h), 4 * 0.7 * (spec.charges - 0.2) ** 2)
        np.testing.assert_allclose(np.diag(h, 1), -0.15)
        assert np.all(np.triu(h, 2) == 0)

    def test_build_allocates_only_h(self):
        # tracemalloc counts numpy's allocations, so the peak repeats exactly;
        # at N_CUT_MAX H is 32 MB, and the sum of three dense diagonals took 3x that
        spec = CpbSpec(ec=1.0, ej=0.02, ng=0.5, n_cut=N_CUT_MAX)
        tracemalloc.start()
        try:
            h = cpb_hamiltonian(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * h.nbytes


class TestSweetSpot:
    def test_claim_regime(self):
        rep = verify_sweet_spot_states(CpbSpec(ec=1.0, ej=0.02, ng=0.5))
        assert rep.n == 0
        assert rep.overlap_g >= 0.999
        assert rep.overlap_e >= 0.999
        assert rep.splitting == pytest.approx(0.02, rel=1e-4)
        assert type(rep.degenerate_pair) is bool and not rep.degenerate_pair

    def test_translation_covariance(self):
        a = verify_sweet_spot_states(CpbSpec(ec=1.0, ej=0.02, ng=0.5))
        b = verify_sweet_spot_states(CpbSpec(ec=1.0, ej=0.02, ng=1.5))
        assert b.n == 1
        assert b.overlap_g == pytest.approx(a.overlap_g, abs=1e-12)
        assert b.overlap_e == pytest.approx(a.overlap_e, abs=1e-12)
        assert b.splitting == pytest.approx(a.splitting, abs=1e-12)

    def test_ej_zero_limit(self):
        rep = verify_sweet_spot_states(CpbSpec(ec=1.0, ej=0.0, ng=0.5))
        assert type(rep.degenerate_pair) is bool and rep.degenerate_pair
        assert rep.overlap_g == pytest.approx(1.0, abs=1e-12)
        assert rep.overlap_e == pytest.approx(1.0, abs=1e-12)

    def test_off_sweet_spot_rejected(self):
        with pytest.raises(ValueError, match="sweet spot"):
            verify_sweet_spot_states(CpbSpec(ec=1.0, ej=0.02, ng=0.4))

    def test_overlap_monotone_toward_charge_limit(self):
        ratios = [0.2, 0.1, 0.05, 0.01]
        overlaps = [verify_sweet_spot_states(CpbSpec(ec=1.0, ej=r, ng=0.5)).overlap_g
                    for r in ratios]
        assert all(b > a for a, b in zip(overlaps, overlaps[1:]))
        assert overlaps[-1] > 0.9999


class TestProperties:
    def test_cutoff_insensitivity(self):
        for ej in (0.05, 0.5, 1.0):
            base = CpbSpec(ec=1.0, ej=ej, ng=0.5, n_cut=10)
            more = CpbSpec(ec=1.0, ej=ej, ng=0.5, n_cut=15)
            w0 = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(base)))[:2]
            w1 = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(more)))[:2]
            assert np.max(np.abs(w0 - w1)) <= 1e-10

    def test_gate_periodicity(self):
        # spectra at ng and ng + 1 coincide (charge-basis translation)
        for ng in (0.0, 0.3, 0.5):
            a = CpbSpec(ec=1.0, ej=0.2, ng=ng, n_cut=14)
            b = CpbSpec(ec=1.0, ej=0.2, ng=ng + 1.0, n_cut=14)
            wa = np.sort(sla.eigvalsh(cpb_hamiltonian(a)))[:6]
            wb = np.sort(sla.eigvalsh(cpb_hamiltonian(b)))[:6]
            assert np.max(np.abs(wa - wb)) <= 1e-12


# E_J = 0 at a sweet spot, the charge regime, the transmon regime; sweet
# spots at n_g 0.5, -0.5 and 1.5 and points off them
REFERENCE_SPECS = [CpbSpec(ec=ec, ej=ej, ng=ng, n_cut=n_cut)
                   for ec, ej, ngs in [(1.0, 0.0, (0.5, 0.3)),
                                       (1.0, 0.002, (0.5, -0.5, 1.5, 0.3)),
                                       (1.0, 0.02, (0.5, -0.5, 1.5, -1.2)),
                                       (1.0, 0.2, (0.5, -0.5, 1.5, 0.3)),
                                       (0.05, 2.0, (0.5, -0.5, 1.5, 0.3))]
                   for ng in ngs
                   for n_cut in (5 + math.ceil(abs(ng)), 12, 40)]


class TestSpectrum:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS,
                             ids=lambda s: f"ec{s.ec}-ej{s.ej}-ng{s.ng}-ncut{s.n_cut}")
    def test_matches_tridiagonal_solver(self, spec):
        # the reference is LAPACK's tridiagonal solver on H's two diagonals
        h = cpb_hamiltonian(spec)
        w_ref, v_ref = sla.eigh_tridiagonal(np.diag(h).copy(), np.diag(h, 1).copy())
        w, v = _spectrum(spec)
        scale = max(abs(w_ref[0]), abs(w_ref[-1]), 1.0)
        np.testing.assert_allclose(w[:4], w_ref[:4], rtol=0, atol=1e-12 * scale)
        # a state is fixed up to sign where it is apart from its neighbours
        gap = np.diff(w_ref[:3]) > 1e-6 * scale
        for i, apart in enumerate((gap[0], gap[0] and gap[1])):
            if apart:
                np.testing.assert_allclose(np.abs(v[:, i]), np.abs(v_ref[:, i]), rtol=0, atol=1e-10)


class TestReduction:
    def test_effective_splitting(self):
        red = two_level_reduction(CpbSpec(ec=1.0, ej=0.04, ng=0.5))
        assert red.omega0_eff == pytest.approx(0.04, rel=1e-4)
        assert type(red.near_degenerate) is bool and not red.near_degenerate
        assert len(red.e_levels) == 4

    def test_charge_matrix_element(self):
        red = two_level_reduction(CpbSpec(ec=1.0, ej=0.04, ng=0.5))
        assert red.charge_matrix_element == pytest.approx(0.5, abs=1e-3)

    def test_charge_limit_element_vanishes(self):
        red = two_level_reduction(CpbSpec(ec=1.0, ej=0.0, ng=0.25))
        assert red.charge_matrix_element == 0.0

    def test_transmon_regime_flagged(self):
        # nearly harmonic spectrum: third level close, two-level picture off
        red = two_level_reduction(CpbSpec(ec=0.05, ej=2.0, ng=0.5, n_cut=12))
        assert type(red.near_degenerate) is bool and red.near_degenerate


def test_csv_columns(tmp_path):
    specs = [CpbSpec(ec=1.0, ej=0.05, ng=0.5), CpbSpec(ec=1.0, ej=0.05, ng=0.3)]
    path = tmp_path / "cpb.csv"
    write_cpb_csv(path, specs)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("ec,ej,ng,e_level_0,e_level_1,e_level_2,e_level_3,"
                        "overlap_g,overlap_e,omega0_eff,charge_matrix_element")
    on_sweet = lines[1].split(",")
    off_sweet = lines[2].split(",")
    assert float(on_sweet[7]) > 0.99          # overlap present at the sweet spot
    assert off_sweet[7] == "" and off_sweet[8] == ""
