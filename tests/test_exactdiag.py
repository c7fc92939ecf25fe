import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp

import oracles

from dickelab import (
    AtomSpec,
    ConvergenceError,
    DickeModel,
    ResourceLimitError,
    SolverError,
    build_basis,
    build_hamiltonian,
    converge_cutoff,
    ed_ground,
    energy_density,
    ground_state,
    ladder,
    mean_field_state,
    minimize,
    observables,
    parity_compatible,
    parity_signs,
    two_level,
)
from dickelab import exactdiag
from dickelab.exactdiag import (MAX_DIM_DEFAULT, TOL_E, _bogoliubov, _coupling, _first_cutoff,
                                 _lanczos, _sectors, dump_state, ed_csv_header, ed_csv_row)

LADDER_E_STAR = -7.0 / 9.0   # min_x e(x) for the eps=(0,1,2) ladder at lam12=1.5
# converge_cutoff takes three steps here: n_max 16, 24 and 36 (truncation
# residuals 1.9e-6 and 2.5e-8, above TOL_E, then 7.6e-11); dims 3927, 5775 and
# 8547, whose two parity blocks are above DENSE_CUTOFF and go to ARPACK.  With
# x* = 0 its first cutoff is 16, which no superradiant rule moves
TWO_STEP_MODEL = ladder(1.0, 1.0, 2.0, 0.3, 1.0, n_atoms=20)


def displacement_operator(basis) -> sp.csr_matrix:
    """(a + a') in the packed basis, built independently of the package."""
    A = basis.n_atomic
    n = np.arange(basis.n_max)
    r = np.arange(A)
    rows = ((n[:, None] + 1) * A + r[None, :]).ravel()
    cols = (n[:, None] * A + r[None, :]).ravel()
    vals = np.broadcast_to(np.sqrt(n + 1.0)[:, None], (basis.n_max, A)).ravel()
    X = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return (X + X.T).tocsr()


def blocks(model, basis) -> list[np.ndarray]:
    """Basis indices of ed_ground's sectors, in its order."""
    sectors = _sectors(_coupling(model), basis.n_max)
    return [sector.indices(basis.n_atomic) for sector in sectors]


VTYPE = AtomSpec([0.0, 1.0, 1.5], [[0.0, 0.35, 0.3], [0.35, 0.0, 0.0], [0.3, 0.0, 0.0]])
# models whose sectors cover parity, m_0 and V-type splits and isolated
# atomic states (lambda_01 = 0); the kappa > 0 ones as ed_ground builds them,
# in their Bogoliubov photon basis
SECTOR_MODELS = [_bogoliubov(m)[0] for m in (
    ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=5),
    ladder(1.0, 1.0, 2.0, 0.1, 1.2, kappa=0.05, n_atoms=4),
    DickeModel(1.0, VTYPE, n_atoms=4),
    DickeModel(1.0, VTYPE, n_atoms=3, kappa=0.1),
    two_level(1.0, 1.0, 0.7, kappa=0.2, n_atoms=6))]


def random_model(rng) -> DickeModel:
    d = int(rng.integers(2, 5))
    n_atoms = int(rng.integers(1, 6))
    eps = np.sort(np.concatenate([[0.0], rng.uniform(0.3, 2.5, d - 1)]))
    lam = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            lam[j, k] = lam[k, j] = rng.uniform(-1.5, 1.5)
    kappa = float(rng.uniform(0.0, 0.2)) if rng.random() < 0.3 else 0.0
    # the kappa = 0 model ed_ground builds for it
    return _bogoliubov(DickeModel(float(rng.uniform(0.5, 2.0)), AtomSpec(eps, lam),
                                  n_atoms=n_atoms, kappa=kappa))[0]


class TestBasis:
    def test_dimensions(self):
        assert build_basis(1, 2, 1).dim == 4
        assert build_basis(10, 3, 0).dim == 66
        assert build_basis(2, 3, 2).dim == 18

    def test_ground_state_ranked_first(self):
        b = build_basis(5, 3, 0)
        assert tuple(b.atomic_states[0]) == (5, 0, 0)
        assert b.rank((5, 0, 0)) == 0
        assert b.index(0, (5, 0, 0)) == 0

    def test_atomic_count(self):
        for n_atoms in (1, 4, 9):
            for d in (2, 3, 4):
                b = build_basis(n_atoms, d, 0)
                assert b.n_atomic == math.comb(n_atoms + d - 1, d - 1)
                assert len({tuple(m) for m in b.atomic_states}) == b.n_atomic

    def test_bijection(self):
        for n_atoms in (1, 3, 7, 12):
            for d in (2, 3, 4, 5):
                b = build_basis(n_atoms, d, 0)
                for r in range(b.n_atomic):
                    m = b.unrank(r)
                    assert b.rank(m) == r
                    assert tuple(b.atomic_states[r]) == m

    def test_rank_validation(self):
        b = build_basis(3, 2, 1)
        with pytest.raises(ValueError):
            b.rank((2, 0))
        with pytest.raises(ValueError):
            b.unrank(b.n_atomic)
        with pytest.raises(ValueError):
            b.index(2, (3, 0))

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError, match="max_dim"):
            build_basis(10, 3, 105, max_dim=500)


class TestHamiltonian:
    def test_decoupled_diagonal(self):
        m = two_level(1.0, 1.0, 0.0)
        H = build_hamiltonian(m, build_basis(1, 2, 1))
        np.testing.assert_array_equal(H.toarray(), np.diag([0.0, 1.0, 1.0, 2.0]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_model(rng)
            basis = build_basis(m.n_atoms, m.atom.d, 6)
            H = build_hamiltonian(m, basis)
            assert (H != H.T).nnz == 0

    def test_rabi_against_kron_oracle(self):
        n_max = 40
        H = build_hamiltonian(two_level(1.0, 0.9, 0.6), build_basis(1, 2, n_max)).toarray()
        ref = oracles.rabi_hamiltonian(1.0, 0.9, 0.6, n_max)
        np.testing.assert_allclose(H, ref, atol=1e-13)
        e0 = ground_state(H).e0
        assert e0 == pytest.approx(float(sla.eigvalsh(ref)[0]), abs=1e-10)
        # kappa > 0 is solved in the Bogoliubov photon basis, shifted back
        ref = oracles.rabi_hamiltonian(1.0, 0.9, 0.6, n_max, kappa=0.05)
        e0 = ed_ground(two_level(1.0, 0.9, 0.6, kappa=0.05), n_max).e0
        assert e0 == pytest.approx(float(sla.eigvalsh(ref)[0]), abs=1e-10)

    def test_kappa_needs_bogoliubov(self):
        with pytest.raises(ValueError, match="kappa"):
            build_hamiltonian(two_level(1.0, 1.0, 0.5, kappa=0.1), build_basis(1, 2, 4))

    @pytest.mark.parametrize("kappa", [0.0, 0.15])
    @pytest.mark.parametrize("n_atoms, d", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_symmetric_sector_against_kron_oracle(self, n_atoms, d, kappa):
        # every pair coupled, so the even hop 0 <-> 2 (V-type) is included
        rng = np.random.default_rng(10 * n_atoms + d)
        eps = np.sort(np.concatenate([[0.0], rng.uniform(0.3, 2.5, d - 1)]))
        lam = np.zeros((d, d))
        for j in range(d):
            for k in range(j + 1, d):
                lam[j, k] = lam[k, j] = rng.uniform(-1.5, 1.5)
        m = DickeModel(0.8, AtomSpec(eps, lam), n_atoms=n_atoms, kappa=kappa)
        assert not parity_compatible(m.atom)
        if kappa:
            # H is solved in the Bogoliubov photon basis: its shifted ground
            # energy, at the converged cutoff, against the a-basis oracle,
            # which n_max 30 converges
            ref = oracles.symmetric_sector_spectrum(n_atoms, eps, lam, 0.8, 30, kappa=kappa)
            assert converge_cutoff(m).e0 == pytest.approx(ref[0], abs=1e-10)
            return
        n_max = 6
        H = build_hamiltonian(m, build_basis(n_atoms, d, n_max)).toarray()
        ref = oracles.symmetric_sector_spectrum(n_atoms, eps, lam, 0.8, n_max)
        assert ref.size == H.shape[0]
        np.testing.assert_allclose(sla.eigvalsh(H), ref, atol=1e-10)

    def test_kappa_only_matches_bogoliubov(self):
        # couplings off: H is the photon mode alone, ground energy known
        atom = AtomSpec([0.0, 1.0], np.zeros((2, 2)))
        m = DickeModel(1.0, atom, kappa=0.3)
        assert ed_ground(m, 8).e0 == pytest.approx(
            oracles.photon_only_ground(1.0, 0.3), abs=1e-9)

    def test_parity_block_structure(self):
        # chain couplings connect only equal-parity basis states
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.2, n_atoms=4)
        assert parity_compatible(m.atom)
        basis = build_basis(4, 3, 8)
        signs = parity_signs(basis)
        H = build_hamiltonian(m, basis).tocoo()
        assert np.all(signs[H.row] == signs[H.col])

    def test_blocks_follow_conserved_quantities(self):
        basis = build_basis(4, 3, 8)
        signs = parity_signs(basis)
        got = blocks(ladder(1.0, 1.0, 2.0, 0.1, 1.2, n_atoms=4), basis)
        assert len(got) == 2
        for block, sign in zip(got, (1.0, -1.0)):     # block 0 is the even sector
            np.testing.assert_array_equal(block, np.flatnonzero(signs == sign))
        # V-type: (-1)^(n + number of excited atoms) is conserved, Pi is not
        got = blocks(DickeModel(1.0, VTYPE, n_atoms=4), basis)
        n_ph, rank = np.divmod(np.arange(basis.dim), basis.n_atomic)
        excited_parity = (n_ph + 4 - basis.atomic_states[rank, 0]) % 2
        assert len(got) == 2
        assert all(np.unique(excited_parity[block]).size == 1 for block in got)
        # lam01 = 0: m_0 is conserved
        got = blocks(ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=4), basis)
        m0 = basis.atomic_states[rank, 0]
        assert all(np.unique(m0[block]).size == 1 for block in got)
        np.testing.assert_array_equal(np.sort(np.concatenate(got)), np.arange(basis.dim))

    def test_blocks_are_undirected_components(self):
        # the sectors come from J alone; they must be the connected
        # components of the full H's sparsity graph with each state (n, r)
        # also joined to (n + 2, r), in order of lowest index
        from scipy.sparse.csgraph import connected_components

        for model in SECTOR_MODELS:
            for n_max in (0, 1, 2, 3, 6, 17):
                basis = build_basis(model.n_atoms, model.atom.d, n_max)
                low = np.arange(max(0, basis.dim - 2 * basis.n_atomic))
                two_up = sp.coo_matrix((np.ones(low.size), (low, low + 2 * basis.n_atomic)),
                                       shape=(basis.dim, basis.dim))
                graph = build_hamiltonian(model, basis) + two_up
                labels = connected_components(graph, directed=False)[1]
                expected = sorted((np.flatnonzero(labels == c) for c in np.unique(labels)),
                                  key=lambda idx: idx[0])
                got = blocks(model, basis)
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    np.testing.assert_array_equal(a, b)

    def test_sector_atoms_do_not_depend_on_n_max(self):
        # from n_max 1 on, a sector spans every photon row: only n_max changes
        for model in SECTOR_MODELS:
            J = _coupling(model)
            ref = _sectors(J, 1)
            for n_max in (2, 6, 17):
                got = _sectors(J, n_max)
                assert len(got) == len(ref) and all(s.n_max == n_max for s in got)
                for a, b in zip(got, ref):
                    for p in (0, 1):
                        np.testing.assert_array_equal(a.atoms[p], b.atoms[p])

    def test_sector_matrix_is_slice_of_full_h(self):
        for model in SECTOR_MODELS:
            for n_max in (0, 1, 2, 3, 6, 17):
                basis = build_basis(model.n_atoms, model.atom.d, n_max)
                H = build_hamiltonian(model, basis)
                for sector in _sectors(_coupling(model), n_max):
                    idx = sector.indices(basis.n_atomic)
                    got = build_hamiltonian(model, basis, sector)
                    ref = H[idx][:, idx]
                    ref.sort_indices()
                    for name in ("indptr", "indices", "data"):
                        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_full_hamiltonian_is_canonical_csr(self):
        rng = np.random.default_rng(8)
        models = SECTOR_MODELS + [random_model(rng) for _ in range(10)]
        for model in models:
            for n_max in (0, 1, 2, 3, 7):
                H = build_hamiltonian(model, build_basis(model.n_atoms, model.atom.d, n_max))
                rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
                steps = np.diff(H.indices)
                # column indices strictly increase inside every row
                assert np.all(steps[rows[1:] == rows[:-1]] > 0)
                assert H.has_canonical_format
                assert (H != H.T).nnz == 0

    def test_full_hamiltonian_equals_kron_reference(self):
        # every entry, bit for bit: diag(omega n + sum_j eps_j m_j) +
        # (a + a') (x) J.  omega and eps are multiples of 1/8, so the
        # diagonal is exact in any summation order; the hops are the same
        # products sqrt(n) J in both.  Every diagonal entry is stored, zeros
        # included, and each of the n_max photon links holds every J entry twice
        rng = np.random.default_rng(34)
        for _ in range(30):
            d, n_atoms = int(rng.integers(2, 6)), int(rng.integers(1, 7))
            eps = np.concatenate([[0.0], np.sort(rng.integers(1, 24, d - 1)) / 8.0])
            lam = np.triu(rng.uniform(-1.5, 1.5, (d, d)) * (rng.random((d, d)) < 0.7), 1)
            model = DickeModel(float(rng.integers(4, 17)) / 8.0, AtomSpec(eps, lam + lam.T),
                               n_atoms=n_atoms)
            J = _coupling(model)
            for n_max in range(8):
                basis = build_basis(n_atoms, d, n_max)
                n = np.arange(n_max + 1)
                hop = sp.diags([np.sqrt(n[1:])] * 2, [-1, 1], shape=(n_max + 1, n_max + 1))
                diag = (model.omega * n)[:, None] + basis.atomic_states @ eps
                ref = sp.diags(diag.ravel()) + sp.kron(hop, J)
                H = build_hamiltonian(model, basis)
                assert H.nnz == basis.dim + 2 * n_max * J.nnz
                assert np.array_equal(H.toarray(), ref.toarray())

    def test_parity_incompatible_when_even_hop_coupled(self):
        atom = AtomSpec([0.0, 1.0, 2.0],
                        [[0.0, 0.0, 0.4], [0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
        assert not parity_compatible(atom)

    def test_basis_model_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            build_hamiltonian(two_level(1.0, 1.0, 0.5), build_basis(2, 3, 4))


def csr_bytes(H) -> int:
    return H.data.nbytes + H.indices.nbytes + H.indptr.nbytes


class TestAssemblyMemory:
    # tracemalloc counts numpy's allocations, so these peaks repeat exactly;
    # n_max 195 is converge_cutoff's first cutoff for this model
    MODEL = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20)
    N_MAX = 195

    def test_build_allocates_little_beyond_the_matrix(self):
        basis = build_basis(20, 3, self.N_MAX)
        tracemalloc.start()
        try:
            H = build_hamiltonian(self.MODEL, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # room for bounded work buffers, not for a second copy of the entries
        assert peak <= 1.5 * csr_bytes(H)

    def test_ed_ground_holds_no_full_hamiltonian(self, monkeypatch):
        basis = build_basis(20, 3, self.N_MAX)
        full = csr_bytes(build_hamiltonian(self.MODEL, basis))
        solve, held = exactdiag.ground_state, []

        def spy(H, *args, **kwargs):
            held.append((H.shape[0], tracemalloc.get_traced_memory()[0] - csr_bytes(H)))
            return solve(H, *args, **kwargs)

        ed_ground(self.MODEL, 8)        # imports and caches stay out of the count
        monkeypatch.setattr(exactdiag, "ground_state", spy)
        tracemalloc.start()
        try:
            ed_ground(self.MODEL, self.N_MAX)
        finally:
            tracemalloc.stop()
        assert len(held) == 2 and all(dim < basis.dim for dim, _ in held)
        # besides the block it solves, ed_ground holds a few basis-sized
        # vectors (about 1.2 MB here), never the full H (4.4 MB)
        assert all(other < full / 2 for _, other in held), (full, held)


class TestGroundState:
    def test_diagonal(self):
        gs = ground_state(np.diag([3.0, 1.0, 2.0]))
        assert gs.e0 == 1.0
        np.testing.assert_allclose(np.abs(gs.vector), [0.0, 1.0, 0.0], atol=1e-14)
        assert gs.method == "dense"

    def test_random_dense_vs_lanczos(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((200, 200))
        H = (a + a.T) / 2.0
        dense = ground_state(H)
        lanc = _lanczos(H)
        assert lanc.method == "lanczos"
        assert abs(lanc.e0 - dense.e0) <= 1e-10 * max(1.0, abs(dense.e0))

    def test_lanczos_on_random_models(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 8:
            m = random_model(rng)
            n_atomic = math.comb(m.n_atoms + m.atom.d - 1, m.atom.d - 1)
            n_max = min(12, 2000 // n_atomic - 1)
            if n_max < 4:
                continue
            H = build_hamiltonian(m, build_basis(m.n_atoms, m.atom.d, n_max))
            dense = sla.eigh(H.toarray(), subset_by_index=(0, 0))[0][0]
            lanc = _lanczos(H)
            assert abs(lanc.e0 - dense) <= 1e-10 * max(1.0, abs(dense))
            done += 1

    def test_superradiant_energy_drops(self):
        m = two_level(1.0, 1.0, 1.5, n_atoms=8)
        res = converge_cutoff(m)
        assert res.e0_per_atom < -0.1

    def test_nonconvergence_reports_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((300, 300))
        H = (a + a.T) / 2.0
        with pytest.raises(ConvergenceError) as exc:
            _lanczos(H, max_iter=3)
        assert exc.value.best_residual is not None
        assert exc.value.best_residual > 0.0

    def test_exact_start_vector_converges_fast(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=8)
        basis = build_basis(8, 3, 100)
        idx = np.flatnonzero(parity_signs(basis) == 1.0)
        Hs = build_hamiltonian(m, basis)[idx][:, idx]
        cold = ground_state(Hs)
        warm = ground_state(Hs, v0=cold.vector)
        assert warm.method == cold.method == "lanczos"
        assert warm.iterations <= cold.iterations // 4
        assert abs(warm.e0 - cold.e0) <= 1e-10 * abs(cold.e0)

    def test_arpack_failure_is_convergence_error(self):
        # an exact start vector with eigenvalue 0 makes H v0 = 0: ARPACK info -9
        H = np.diag(np.arange(2500.0))
        v0 = np.zeros(2500)
        v0[0] = 1.0
        with pytest.raises(ConvergenceError, match="ARPACK"):
            _lanczos(H, v0=v0)

    @pytest.mark.parametrize("H", [
        sp.csr_matrix([[2.5]]), sp.csr_matrix((1, 1)), np.array([[-0.75]]),
        sp.csr_matrix((np.array([1.5, 0.0, 2.0]), np.arange(3), np.arange(4)), shape=(3, 3)),
        np.diag([0.5, -2.0, 3.0, -2.0]),
        sp.diags(np.cos(np.arange(exactdiag.DENSE_CUTOFF + 50.0)), format="csr"),
    ], ids=["csr", "csr_no_entry", "dense", "csr-stored-zero", "dense-diagonal",
            "csr-above-dense-cutoff"])
    def test_one_state_matrix_is_its_own_eigenpair(self, H, monkeypatch):
        # a diagonal matrix is solved exactly: its lowest entry (the first of
        # equal ones) and that entry's unit vector
        monkeypatch.setattr(sla, "eigh", None)     # no eigensolver runs
        monkeypatch.setattr(exactdiag, "_lanczos", None)
        gs = ground_state(H)
        diagonal = H.diagonal()
        low = int(np.argmin(diagonal))
        assert gs.e0 == diagonal[low] and np.array_equal(gs.vector, np.eye(diagonal.size)[low])
        assert gs.residual_norm == 0.0 and gs.iterations == 0 and gs.method == "dense"

    @pytest.mark.parametrize("H", [np.diag([1.0, math.inf]), sp.csr_matrix(np.diag([1.0, math.nan])),
                                   sp.diags([0.0] * 299 + [-math.inf], format="csr")],
                             ids=["dense-inf", "csr-nan", "lanczos-size"])
    def test_non_finite_entry_is_solver_error(self, H):
        with pytest.raises(SolverError, match="non-finite"):
            ground_state(H)

    def test_arpack_rng_argument_decided_once(self, monkeypatch):
        H = np.diag(np.arange(300.0))
        _lanczos(H)
        calls = []
        signature = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda f: calls.append(f) or signature(f))
        _lanczos(H)
        _lanczos(H)
        assert calls == []

    def test_partner_image_meeting_tol_is_taken(self):
        # a vector that meets ARPACK's rule r <= TOL |theta| is returned
        # after one product; one that does not goes to ARPACK from it
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=8)
        basis = build_basis(8, 3, 60)
        H = build_hamiltonian(m, basis)
        idx = np.flatnonzero(parity_signs(basis) > 0)
        Hs = H[idx][:, idx]
        ref = ground_state(Hs)
        assert ref.method == "lanczos" and ref.residual_norm <= exactdiag.TOL * abs(ref.e0)
        gs = ground_state(Hs, v0=3.0 * ref.vector, partner=True)
        assert (gs.method, gs.iterations) == ("partner", 1)
        np.testing.assert_allclose(gs.vector, ref.vector, rtol=0, atol=1e-15)
        assert abs(gs.e0 - ref.e0) <= 1e-14 * abs(ref.e0)
        assert gs.residual_norm == exactdiag._true_residual(Hs, gs.vector, gs.e0)
        rough = ref.vector + 1e-3 * np.random.default_rng(1).standard_normal(idx.size)
        gs = ground_state(Hs, v0=rough, partner=True)
        assert gs.method == "lanczos" and gs.iterations > 1
        assert gs.residual_norm <= exactdiag.TOL * abs(gs.e0)
        # without the flag the same exact vector still goes to ARPACK
        assert ground_state(Hs, v0=ref.vector).method == "lanczos"
        with pytest.raises(ValueError, match="partner"):
            ground_state(Hs, partner=True)

    def test_overflowing_partner_test_leaves_the_matrix_to_arpack(self, monkeypatch):
        # finite entries near 1.5e308 whose v.Hv overflows to inf, and so
        # does the residual: inf <= TOL inf must not pass for an eigenpair
        n = 300
        band = np.full(n - 1, 1.5e308)
        H = sp.diags([band, np.full(n, 1.5e308), band], [-1, 0, 1], format="csr")
        handed = []

        def arpack(H, v0=None):
            handed.append(v0)
            return "arpack"

        monkeypatch.setattr(exactdiag, "_lanczos", arpack)
        assert ground_state(H, v0=np.ones(n), partner=True) == "arpack"
        assert len(handed) == 1 and np.array_equal(handed[0], np.ones(n))

    def test_residual_norm_small(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=6)
        basis = build_basis(6, 3, 60)
        H = build_hamiltonian(m, basis)
        gs = _lanczos(H)
        h_scale = float(np.max(np.abs(H.diagonal())))
        assert gs.residual_norm <= 1e-8 * h_scale


class TestObservables:
    def test_trivial_state(self):
        basis = build_basis(3, 3, 2)
        psi = np.zeros(basis.dim)
        psi[basis.index(0, (3, 0, 0))] = 1.0
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.0, n_atoms=3)
        res = observables(psi, basis, m)
        np.testing.assert_allclose(res.populations, [1.0, 0.0, 0.0], atol=0)
        assert res.photon_density == 0.0
        assert res.parity == 1.0

    def test_normal_phase_two_level(self):
        res = ed_ground(two_level(1.0, 1.0, 0.45, n_atoms=8), n_max=20)
        assert res.populations[1] < 0.05
        assert res.photon_density < 0.05
        assert abs(abs(res.parity) - 1.0) <= 1e-10

    def test_superradiant_ladder(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=8)
        res = converge_cutoff(m)
        assert res.populations[0] == 0.0      # the winning block has m_0 = 0
        assert res.photon_density > 0.5
        assert abs(abs(res.parity) - 1.0) <= 1e-12
        assert abs(res.populations.sum() - 1.0) <= 1e-10

    def test_first_moment_vanishes(self):
        # parity symmetry forces <a + a'> = 0 even deep in the phase
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=6)
        res = converge_cutoff(m)
        basis = build_basis(6, 3, res.n_max_used)
        X = displacement_operator(basis)
        assert abs(res.psi0 @ (X @ res.psi0)) <= 1e-10

    def test_parity_twirl_leaves_energy(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.3, n_atoms=5)
        res = ed_ground(m, n_max=30)
        basis = build_basis(5, 3, 30)
        H = build_hamiltonian(m, basis)
        signs = parity_signs(basis)
        flipped = signs * res.psi0
        assert abs(flipped @ (H @ flipped) - res.psi0 @ (H @ res.psi0)) <= 1e-10

    def test_quad_reduces_to_first_moments(self):
        # coherent-free ground state: quad = 2 <n> + 1 + 2 Re<a a> per atom
        basis = build_basis(2, 2, 6)
        psi = np.zeros(basis.dim)
        psi[basis.index(0, (2, 0))] = 1.0
        m = two_level(1.0, 0.5, 0.2, n_atoms=2)
        res = observables(psi, basis, m)
        assert res.quad == pytest.approx(1.0 / 2.0)   # vacuum: <(a+a')^2> = 1

    @pytest.mark.parametrize("kappa", [0.05, 0.1])
    def test_bogoliubov_moments_map_back_to_a(self, kappa):
        # ed_ground's psi0 is in the b basis; photon_density and quad are
        # <a'a> and <(a + a')^2> of the a-basis Rabi oracle's ground vector
        n_max = 40
        H = oracles.rabi_hamiltonian(1.0, 0.9, 0.6, n_max, kappa=kappa)
        v = sla.eigh(H, subset_by_index=(0, 0))[1][:, 0]
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 3)), 1)      # two slack levels, then crop
        x2 = ((a + a.T) @ (a + a.T))[:n_max + 1, :n_max + 1]
        number = np.kron(np.diag(np.arange(n_max + 1.0)), np.eye(2))
        res = ed_ground(two_level(1.0, 0.9, 0.6, kappa=kappa), n_max)
        assert res.photon_density == pytest.approx(v @ number @ v, abs=1e-10)
        assert res.quad == pytest.approx(v @ np.kron(x2, np.eye(2)) @ v, abs=1e-10)


class TestHellmannFeynman:
    # dE0/dp = <dH/dp> at fixed n_max, so d(e0/N)/domega = photon_density,
    # d(e0/N)/dkappa = quad and d(e0/N)/deps_j = populations[j]: a finite-N
    # oracle without a reference solution.  The eps slopes, and the omega
    # slope at kappa = 0, are exact for the truncated H; at kappa > 0 omega
    # and kappa move the Bogoliubov mode that n_max truncates, so n_max is
    # converged there (converge_cutoff's).  Measured with h = 1e-4: omega
    # within 1.09e-8, kappa 6.98e-7 (both the ladder_kappa point, where quad
    # is 6.3) and eps 4.3e-10, the central difference's h^2 term each
    TOL = {"omega": 1.1e-8, "kappa": 7e-7, "eps": 5e-10}

    @pytest.mark.parametrize("model, n_max", [
        (two_level(1.0, 1.0, 0.4, n_atoms=10), 16),
        (two_level(1.0, 1.0, 0.8, kappa=0.1, n_atoms=10), 36),
        (ladder(1.0, 1.0, 2.0, 0.1, 1.5, kappa=0.05, n_atoms=8), 70),
        (ladder(1.0, 1.0, 2.0, 0.3, 1.0, kappa=0.5, n_atoms=6), 16),
    ], ids=["two_level", "two_level_kappa", "ladder_kappa", "ladder_normal"])
    def test_slopes_are_the_observables(self, model, n_max):
        res = ed_ground(model, n_max)
        if model.kappa > 0.0:
            assert res.truncation_residual <= TOL_E
        want = {"omega": res.photon_density, "kappa": res.quad,
                **{f"eps_{j}": res.populations[j] for j in range(1, model.atom.d)}}
        slopes = oracles.central_slopes(lambda m: ed_ground(m, n_max).e0_per_atom, model, h=1e-4)
        assert len(slopes) == model.atom.d + (model.kappa > 0.0)
        for name, slope in slopes.items():
            assert abs(slope - want[name]) <= self.TOL[name.split("_")[0]], (name, slope, want[name])


class TestEdGround:
    def test_decoupled_excited_coupling_gap(self):
        # lam12 below critical with lam01 = 0: the photon-atom block around
        # (N, 0, 0) is decoupled and the exact ground energy is 0
        m = ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=12)
        res = converge_cutoff(m)
        assert abs(res.e0) <= 1e-10
        np.testing.assert_allclose(res.populations, [1.0, 0.0, 0.0], atol=1e-12)
        assert res.parity == pytest.approx(1.0, abs=1e-12)

    def test_parity_resolved_quasi_degenerate(self):
        # deep superradiant regime: two lowest states nearly degenerate with
        # opposite parity; sector-resolved solves must still pin |parity| = 1
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=8)
        res = converge_cutoff(m)
        assert abs(abs(res.parity) - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam01", [0.0, 0.1])
    @pytest.mark.parametrize("n_atoms", [8, 10])
    def test_parity_and_energy_independent_of_seed(self, lam01, n_atoms):
        # deep superradiant: the sector energies agree to within their residuals
        m = ladder(1.0, 1.0, 2.0, lam01, 1.5, n_atoms=n_atoms)
        runs = [converge_cutoff(m) for _ in range(2)]
        assert {round(r.parity) for r in runs} == {1}
        # every block starts from a fixed vector, and the winning one from the
        # mean-field state: a rerun in the same process repeats every bit
        assert len({r.e0_per_atom for r in runs}) == 1
        assert len({r.parity for r in runs}) == 1

    @pytest.mark.parametrize("lam12", [1.2, 1.21, 1.25])
    def test_disconnected_couplings_match_dense(self, lam12):
        # lam01 = 0 near the first-order transition: m_0 blocks compete
        m = ladder(1.0, 1.0, 2.0, 0.0, lam12, n_atoms=6)
        H = build_hamiltonian(m, build_basis(6, 3, 30))
        assert ed_ground(m, n_max=30).e0 == pytest.approx(sla.eigvalsh(H.toarray())[0], abs=1e-10)

    def test_isolated_state_taken_exactly(self):
        # lam01 = 0: |n=0, (N, 0, 0)> has no off-diagonal entry and E = 0 is
        # the ground energy, below everything the 1-2 coupling reaches
        m = ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=30)
        res = ed_ground(m, n_max=16)
        assert res.e0 == 0.0 and res.method == "dense"
        assert res.parity == 1.0 and res.residual_norm == 0.0
        np.testing.assert_array_equal(res.populations, [1.0, 0.0, 0.0])


    def test_one_state_blocks_match_dense_eigh(self, monkeypatch):
        # lam01 = 0: the states |n, (N, 0, 0)> form two diagonal blocks, one
        # per photon parity, and the even one wins at n = 0; results are
        # those of a dense eigh of each diagonal block
        m = ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=20)
        fast = ed_ground(m, n_max=100)
        diagonal, solve = [], exactdiag.ground_state

        def dense_diagonal(H, v0=None, *, partner=False):
            diagonal.append(H.nnz == H.shape[0])
            if not diagonal[-1]:
                return solve(H, v0, partner=partner)
            w, v = sla.eigh(H.toarray(), subset_by_index=(0, 0))
            e0 = float(w[0])
            return exactdiag.GroundState(e0=e0, vector=v[:, 0], iterations=0, method="dense",
                                         residual_norm=exactdiag._true_residual(H, v[:, 0], e0))

        monkeypatch.setattr(exactdiag, "ground_state", dense_diagonal)
        slow = ed_ground(m, n_max=100)
        assert (len(diagonal), sum(diagonal)) == (42, 2)
        for f in dataclasses.fields(fast):
            a, b = getattr(fast, f.name), getattr(slow, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
        assert fast.e0 == 0.0 and fast.method == "dense"


class TestMeanFieldStart:
    def test_amplitudes_match_product_formula(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5, kappa=0.02, n_atoms=5)
        x = minimize(m).x_star
        basis = build_basis(5, 3, 12)
        c = np.linalg.eigh(np.diag(m.atom.energies) + 2.0 * x * m.atom.couplings)[1][:, 0]
        mu = 5 * x**2
        ph = [math.exp(-mu / 2) * mu ** (n / 2) / math.sqrt(math.factorial(n))
              for n in range(13)]
        at = [math.sqrt(math.factorial(5) / math.prod(math.factorial(int(k)) for k in occ))
              * math.prod(float(cj) ** int(k) for cj, k in zip(c, occ))
              for occ in basis.atomic_states]
        ref = np.outer(ph, at).ravel()
        ref /= np.linalg.norm(ref)
        psi = mean_field_state(m, basis, x)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(psi * np.sign(psi @ ref), ref, atol=1e-13)

    def test_energy_is_mean_field_energy(self):
        # <H0> = N e(x*) for an untruncated coherent b product state at x*/s,
        # with H0 the kappa = 0 model in the Bogoliubov photon basis
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5, kappa=0.05, n_atoms=6)
        x = minimize(m).x_star
        m0, s = _bogoliubov(m)
        basis = build_basis(6, 3, 80)
        psi = mean_field_state(m0, basis, x / s)
        H = build_hamiltonian(m0, basis)
        assert psi @ (H @ psi) == pytest.approx(6 * energy_density(m, x), abs=1e-9)

    def test_energy_at_negative_x_star(self):
        # a 0-1-2 triangle of couplings condenses at x* < 0, so <a> < 0 and
        # the photon amplitudes alternate in sign: <H0> = N e(x*), as above
        lam = [[0.0, 0.3, 0.55], [0.3, 0.0, 0.2], [0.55, 0.2, 0.0]]
        m = DickeModel(1.0, AtomSpec([0.0, 0.559, 1.899], lam), kappa=0.05, n_atoms=6)
        x = minimize(m).x_star
        assert x < -0.1
        m0, s = _bogoliubov(m)
        basis = build_basis(6, 3, 80)
        psi = mean_field_state(m0, basis, x / s)
        H = build_hamiltonian(m0, basis)
        assert psi @ (H @ psi) == pytest.approx(6 * energy_density(m, x), abs=1e-9)

    def test_normal_phase_is_vacuum_ground(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 0.5, n_atoms=4)
        basis = build_basis(4, 3, 10)
        psi = mean_field_state(m, basis, 0.0)
        np.testing.assert_array_equal(np.abs(psi), np.eye(basis.dim)[0])

    @pytest.mark.parametrize("n_atoms", [6, 8])
    @pytest.mark.parametrize("lam12", [1.15, 1.2, 1.25])
    @pytest.mark.parametrize("lam01", [0.02, 0.05, 0.1])
    def test_started_lanczos_matches_dense(self, lam01, lam12, n_atoms):
        # near the first-order transition, where local minima compete
        m = ladder(1.0, 1.0, 2.0, lam01, lam12, n_atoms=n_atoms)
        basis = build_basis(n_atoms, 3, 40)
        H = build_hamiltonian(m, basis)
        start = mean_field_state(m, basis, minimize(m).x_star)
        for sign in (1.0, -1.0):
            idx = np.flatnonzero(parity_signs(basis) == sign)
            Hs = H[idx][:, idx]
            v0 = start[idx] if start[idx].any() else None
            lanc = _lanczos(Hs, v0=v0)
            dense = sla.eigh(Hs.toarray(), subset_by_index=(0, 0))[0][0]
            assert abs(lanc.e0 - dense) <= 1e-8

    def test_fewer_matvecs_than_random_start(self):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20)
        x = minimize(m).x_star
        basis = build_basis(20, 3, _first_cutoff(m, x, MAX_DIM_DEFAULT))
        H = build_hamiltonian(m, basis)
        start = mean_field_state(m, basis, x)
        for sign in (1.0, -1.0):
            idx = np.flatnonzero(parity_signs(basis) == sign)
            Hs = H[idx][:, idx]
            cold = ground_state(Hs)
            warm = ground_state(Hs, v0=start[idx])
            assert warm.method == cold.method == "lanczos"
            assert 3 * warm.iterations <= 2 * cold.iterations
            assert abs(warm.e0 - cold.e0) <= 1e-10 * abs(cold.e0)


def photon_sign(n_max: int) -> np.ndarray:
    """sign(a + a') on photon rows 0..n_max by a dense eigh, with sign(0) = 0:
    an odd number of rows leaves one zero eigenvalue, whose eigenvector is
    even under photon parity."""
    X = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    w, v = np.linalg.eigh(X + X.T)
    return (v * np.where(np.abs(w) > 1e-12, np.sign(w), 0.0)) @ v.T


class TestPartnerStart:
    # cold ed_ground starts a block whose photon-parity partner it has
    # already solved from sign(a + a') applied to that partner's vector
    LADDER = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=10)     # superradiant
    N_MAX = 106                                               # its first cutoff

    def test_odd_block_starts_from_the_even_ones_image(self, monkeypatch):
        m, n_max = self.LADDER, self.N_MAX
        solves, solve = [], exactdiag.ground_state

        def counting(H, *args, **kwargs):
            gs = solve(H, *args, **kwargs)
            solves.append(gs)
            return gs

        monkeypatch.setattr(exactdiag, "ground_state", counting)
        res = ed_ground(m, n_max)
        assert [gs.method for gs in solves] == ["lanczos", "lanczos"]
        # from its mean-field part it took 91
        assert solves[1].iterations <= 30
        assert round(res.parity) == 1
        # the even block is solved exactly as from its mean-field part alone
        basis = build_basis(10, 3, n_max)
        sector = _sectors(_coupling(m), n_max)[0]
        idx = sector.indices(basis.n_atomic)
        start = mean_field_state(m, basis, minimize(m).x_star)[idx]
        ref = _lanczos(build_hamiltonian(m, basis, sector), start)
        assert solves[0].e0 == ref.e0 == res.e0
        assert np.array_equal(res.block_vectors[idx], ref.vector)

    def test_image_within_tol_skips_arpack(self, monkeypatch):
        # N 20 at its first cutoff: the odd block's image is its ground
        # vector to within TOL, so one ARPACK call solves the doublet
        m, n_max = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20), 195
        solves, solve = [], exactdiag.ground_state

        def counting(H, v0=None, *, partner=False):
            solves.append(solve(H, v0, partner=partner))
            return solves[-1]

        def flag_off(H, v0=None, *, partner=False):
            return counting(H, v0, partner=False)

        monkeypatch.setattr(exactdiag, "ground_state", counting)
        res = ed_ground(m, n_max)
        assert [gs.method for gs in solves] == ["lanczos", "partner"]
        assert solves[1].iterations == 1
        monkeypatch.setattr(exactdiag, "ground_state", flag_off)
        ref = ed_ground(m, n_max)
        assert [gs.method for gs in solves[2:]] == ["lanczos", "lanczos"]
        assert abs(solves[1].e0 - solves[3].e0) <= 1e-12 * abs(solves[3].e0)
        # the even block wins either way, so only the odd block's vector moves
        basis = build_basis(20, 3, n_max)
        odd = _sectors(_coupling(m), n_max)[1].indices(basis.n_atomic)
        for f in dataclasses.fields(res):
            a, b = getattr(res, f.name), getattr(ref, f.name)
            if f.name == "block_vectors":
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)
                assert np.array_equal(np.delete(a, odd), np.delete(b, odd))
            else:
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @pytest.mark.parametrize("run", [
        lambda: ed_ground(ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=10), 106),
        lambda: ed_ground(ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=10), 106),
        lambda: converge_cutoff(TWO_STEP_MODEL),
    ], ids=["ladder", "ladder-lam01-0", "warm-steps"])
    def test_flag_marks_partner_images_only(self, run, monkeypatch):
        images, flags = [], []
        image, solve = exactdiag._partner_image, exactdiag.ground_state

        def image_spy(*args):
            images.append(image(*args))
            return images[-1]

        def solve_spy(H, v0=None, *, partner=False):
            flags.append((partner, any(v0 is im for im in images if im is not None)))
            return solve(H, v0, partner=partner)

        monkeypatch.setattr(exactdiag, "_partner_image", image_spy)
        monkeypatch.setattr(exactdiag, "ground_state", solve_spy)
        run()
        assert all(partner == is_image for partner, is_image in flags)
        assert sum(partner for partner, _ in flags) == sum(im is not None for im in images) > 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_partner_test_keeps_the_result(self, seed):
        # random chain-coupled (parity-compatible) atoms, with the couplings
        # scaled 1.3 past the first superradiant point, at their first
        # cutoff; about half of them take their odd block from its image.
        # With or without that test: one result, up to the odd block's vector
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        eps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, d - 1))])
        lam = np.zeros((d, d))
        for j in range(d - 1):
            lam[j, j + 1] = lam[j + 1, j] = rng.uniform(-1.0, 1.0)
        omega, kappa = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.1))
        n_atoms = int(rng.integers(10, 21 if d == 3 else 41))

        def scaled(f):
            return DickeModel(omega, AtomSpec(eps, f * lam), n_atoms=n_atoms, kappa=kappa)

        f = 1.0
        while not minimize(scaled(f)).superradiant:
            f *= 1.5
        m = scaled(1.3 * f)
        assert parity_compatible(m.atom)
        n_max = _first_cutoff(m, minimize(m).x_star, MAX_DIM_DEFAULT)
        res = ed_ground(m, n_max)
        solve = exactdiag.ground_state
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactdiag, "ground_state",
                       lambda H, v0=None, *, partner=False: solve(H, v0, partner=False))
            ref = ed_ground(m, n_max)
        for f in dataclasses.fields(res):
            a, b = getattr(res, f.name), getattr(ref, f.name)
            if f.name == "block_vectors":
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)
            else:
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @pytest.mark.parametrize("model, n_max, fallbacks", [
        (two_level(1.0, 1.0, 0.3, n_atoms=40), 16, 0),   # x* = 0: no mean-field weight on odd
        (DickeModel(1.0, VTYPE, n_atoms=16), 16, 0),
        # lam01 = 0: two m_0 > 0 blocks come before their partners and have
        # no mean-field weight, so they start from _lanczos's fixed vector
        (ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=10), 60, 2),
    ], ids=["two-level-normal", "vtype", "ladder-lam01-0"])
    def test_block_vectors_independent_of_seed(self, model, n_max, fallbacks, monkeypatch):
        cold, solve = [], exactdiag._lanczos

        def counting(H, v0=None, max_iter=None):
            cold.append(v0 is None)
            return solve(H, v0, max_iter)

        monkeypatch.setattr(exactdiag, "_lanczos", counting)
        runs = [ed_ground(model, n_max) for _ in range(3)]
        assert sum(cold) == 3 * fallbacks
        assert all(run.method == "lanczos" for run in runs)
        assert all(np.array_equal(runs[0].block_vectors, run.block_vectors) for run in runs[1:])

    def test_diagonal_blocks_take_no_start(self, monkeypatch):
        # lam01 = 0: |n, (N, 0, 0)> forms two diagonal blocks of 301 and 300
        # states, above DENSE_CUTOFF; they are solved exactly, and no partner
        # image is made for them
        seen, image = [], exactdiag._partner_image

        def spy(vectors, sector, basis):
            seen.append(sector.atoms[0].size + sector.atoms[1].size)
            return image(vectors, sector, basis)

        monkeypatch.setattr(exactdiag, "_partner_image", spy)
        res = ed_ground(ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=2), 600)
        assert seen and 1 not in seen
        assert res.e0 == 0.0 and res.residual_norm == 0.0 and res.method == "dense"

    def test_warm_steps_keep_their_warm_start(self, monkeypatch):
        flips, flip = [], exactdiag._parity_flip

        def counting(n_max):
            flips.append(n_max)
            return flip(n_max)

        monkeypatch.setattr(exactdiag, "_parity_flip", counting)
        res = converge_cutoff(TWO_STEP_MODEL)
        # three steps, and only the cold first one makes S
        assert len(flips) == 1 and flips[0] < res.n_max_used

    def test_one_parity_flip_per_call(self, monkeypatch):
        # lam01 = 0: seven blocks start from their partner's image; S depends
        # on n_max only and is built once
        images, image = [], exactdiag._partner_image

        def spy(*args):
            images.append(image(*args))
            return images[-1]

        monkeypatch.setattr(exactdiag, "_partner_image", spy)
        exactdiag._parity_flip.cache_clear()
        ed_ground(ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=10), 106)
        assert sum(v is not None for v in images) == 7
        info = exactdiag._parity_flip.cache_info()
        assert (info.misses, info.hits) == (1, 6)

    def test_stiff_odd_block_converges(self):
        # TRK-saturated normal phase (kappa = lam^2 / eps_1), x* = 0.  In the
        # a basis its blocks were stiff: cold solves exceeded the matvec cap
        # at 10 of these 21 cutoffs; in the Bogoliubov basis none is
        m = two_level(1.0, 1.0, 3.0, kappa=9.0, n_atoms=20)
        for n_max in range(16, 200, 9):
            res = ed_ground(m, n_max)
            assert round(res.parity) == 1, n_max
            assert res.method == ("dense" if n_max < 25 else "lanczos"), n_max

    @pytest.mark.parametrize("model, n_max", [
        (LADDER, N_MAX), (DickeModel(1.0, VTYPE, n_atoms=16), 16),
    ], ids=["ladder", "vtype"])
    def test_image_lies_in_the_partner_block(self, model, n_max):
        basis = build_basis(model.n_atoms, model.atom.d, n_max)
        sectors = _sectors(_coupling(model), n_max)
        even, odd = (s.indices(basis.n_atomic) for s in sectors)
        psi = np.zeros(basis.dim)
        psi[even] = ed_ground(model, n_max).block_vectors[even]
        image = (photon_sign(n_max) @ psi.reshape(n_max + 1, -1)).ravel()
        outside = np.delete(image, odd)
        assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(image)
        np.testing.assert_allclose(exactdiag._partner_image(psi, sectors[1], basis),
                                   image[odd], atol=1e-12)
        assert exactdiag._partner_image(psi, sectors[0], basis) is None


class TestOnePool:
    """The basis-sized BLAS calls of the ED solve run on scipy's BLAS, the
    library ARPACK runs on, with numpy's bits."""

    @pytest.mark.parametrize("n", [1000, 20_000, 100_000])
    def test_helpers_match_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), 1e3 * rng.standard_normal(n)
        assert exactdiag._norm(a) == np.linalg.norm(a)
        assert exactdiag._norm(b) == np.linalg.norm(b)
        assert exactdiag._dot(a, b) == a @ b
        assert exactdiag._dot(a[:0], b[:0]) == a[:0] @ b[:0] == 0.0

    def test_ed_ground_takes_no_numpy_norm_of_a_basis_vector(self, monkeypatch):
        # N=20 at its first cutoff: a mean-field start, an ARPACK solve and
        # a partner image that meets the tolerance, over a basis of 45,276
        model = ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20)
        x_star = minimize(model).x_star
        n_max = _first_cutoff(model, x_star, MAX_DIM_DEFAULT)
        plain = ed_ground(model, n_max, x_star=x_star)
        norm = np.linalg.norm

        def small_only(x, *args, **kwargs):
            if np.size(x) > 10_000:
                raise AssertionError(f"np.linalg.norm of {np.size(x)} entries")
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", small_only)
        patched = ed_ground(model, n_max, x_star=x_star)
        for f in dataclasses.fields(plain):
            a, b = getattr(patched, f.name), getattr(plain, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
        assert plain.method == "lanczos"


class TestConvergeCutoff:
    def test_decoupled_converges_immediately(self):
        m = two_level(1.0, 1.0, 0.0, n_atoms=4)
        res = converge_cutoff(m)
        assert res.photon_density == 0.0
        assert res.e0 == pytest.approx(0.0, abs=1e-12)

    def test_cutoff_scales_with_mean_field_photon_number(self):
        m = two_level(1.0, 1.0, 0.75, n_atoms=10)
        res = converge_cutoff(m)
        x2 = oracles.two_level_x_star(1.0, 1.0, 0.75) ** 2
        assert res.n_max_used >= math.ceil(4 * 10 * x2)
        # e0 stable against a further cutoff bump
        again = ed_ground(m, n_max=res.n_max_used + 15)
        assert abs(again.e0 - res.e0) <= 1e-7

    def test_variational_dominance_and_trend(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5)
        gaps = []
        for n in (4, 6, 8):
            res = converge_cutoff(m.with_n_atoms(n))
            assert res.e0_per_atom <= LADDER_E_STAR + 1e-12
            gaps.append(LADDER_E_STAR - res.e0_per_atom)
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_warm_started_ladder_matches_cold_solve(self, monkeypatch):
        # three cutoff steps (n_max 16, 24, 36); every block is above
        # DENSE_CUTOFF, and after the first step ARPACK starts each block
        # from the previous step's block vectors
        m = ladder(1.0, 1.0, 2.0, 0.3, 1.0, n_atoms=8)
        steps = []
        solve, ground = exactdiag.ed_ground, exactdiag.ground_state

        def counting(*args, **kwargs):
            steps.append([])
            return solve(*args, **kwargs)

        def recording(*args, **kwargs):
            gs = ground(*args, **kwargs)
            steps[-1].append((gs.method, kwargs.get("v0") is not None))
            return gs

        monkeypatch.setattr(exactdiag, "ed_ground", counting)
        monkeypatch.setattr(exactdiag, "ground_state", recording)
        res = converge_cutoff(m)
        monkeypatch.undo()
        assert len(steps) >= 2
        assert all(method == "lanczos" for step in steps for method, _ in step)
        assert all(started for step in steps[1:] for _, started in step)
        cold = ed_ground(m, n_max=res.n_max_used)
        assert abs(res.e0 - cold.e0) <= 1e-10 * abs(cold.e0)

    def test_given_x_star_matches_computed(self):
        # what ed-nscan passes: one mean-field x* for every N
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5)
        x_star = minimize(m).x_star
        for n in (4, 8):
            a = converge_cutoff(m.with_n_atoms(n))
            b = converge_cutoff(m.with_n_atoms(n), x_star=x_star)
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        assert b.method == "lanczos"

    def test_unstable_cutoff_carries_trace(self, monkeypatch):
        m = TWO_STEP_MODEL
        monkeypatch.setattr(exactdiag, "_CUTOFF_STEPS", 1)
        with pytest.raises(ConvergenceError) as exc:
            converge_cutoff(m)
        [(n0, e0)] = exc.value.trace
        assert n0 >= 8 and e0 < 0.0
        # the message names the rule and the last step's residual
        residual = ed_ground(m, n0).truncation_residual
        assert f"truncation residual {residual:.3g} still above {TOL_E:g}" in str(exc.value)

    def test_resource_limit_carries_trace(self):
        m = TWO_STEP_MODEL
        with pytest.raises(ResourceLimitError) as exc:
            converge_cutoff(m, max_dim=5000)      # dims 3927 and 5775
        assert len(exc.value.trace) == 1          # first cutoff fit, second did not
        n0, e0 = exc.value.trace[0]
        assert n0 >= 8 and e0 < 0.0

    def test_cutoff_ladder_is_one_call_per_step(self, monkeypatch):
        m = TWO_STEP_MODEL
        calls = []
        solve = exactdiag.ed_ground
        sig = inspect.signature(solve)

        def counting(*args, **kwargs):
            calls.append(sig.bind(*args, **kwargs).arguments)
            return solve(*args, **kwargs)

        monkeypatch.setattr(exactdiag, "ed_ground", counting)
        res = converge_cutoff(m)
        assert len(calls) >= 2 and calls[-1]["n_max"] == res.n_max_used
        assert calls[0].get("warm") is None and res.method == "lanczos"
        n_atomic = math.comb(22, 2)
        for prev, cur in zip(calls, calls[1:]):
            assert cur["warm"].size == (prev["n_max"] + 1) * n_atomic
        nz = np.flatnonzero(res.psi0)
        assert res.block_vectors.size == (res.n_max_used + 1) * n_atomic
        assert np.array_equal(res.psi0[nz], res.block_vectors[nz])
        # one step short of convergence: the trace lists the same cutoffs
        steps = [c["n_max"] for c in calls[:-1]]
        calls.clear()
        monkeypatch.setattr(exactdiag, "_CUTOFF_STEPS", len(steps))
        with pytest.raises(ConvergenceError) as exc:
            converge_cutoff(m)
        assert [n for n, _ in exc.value.trace] == steps == [c["n_max"] for c in calls]

    def test_steps_share_one_coupling(self):
        # three cutoff steps, each with two blocks and a truncation residual,
        # build the model's J once
        _coupling.cache_clear()
        res = converge_cutoff(TWO_STEP_MODEL)
        assert res.n_max_used == 36
        assert _coupling.cache_info().misses == 1

    def test_solver_error_in_a_later_step_keeps_its_trace(self, monkeypatch):
        m = TWO_STEP_MODEL
        bases, error = fail_first_solve_of_step_2(monkeypatch)
        with pytest.raises(ConvergenceError) as exc:
            converge_cutoff(m)
        assert exc.value is error and error.best_residual == 0.125
        n0 = bases[0].n_max
        monkeypatch.undo()
        assert exc.value.trace == [(n0, ed_ground(m, n0).e0)]

    @pytest.mark.parametrize("model", [
        pytest.param(ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=8), id="8"),
        pytest.param(ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20), id="20"),
        # mu = N x*^2 < 100/9, where the calibrated mu + 10 sqrt(mu) sets the first cutoff
        *(pytest.param(two_level(1.0, 1.0, lam, n_atoms=n), id=f"two-level-{lam:g}-N{n}")
          for lam, n in ((0.7, 4), (0.7, 10), (0.7, 16), (0.6, 20))),
    ])
    def test_superradiant_ladder_is_accepted_after_one_solve(self, monkeypatch, model):
        calls = []
        solve = exactdiag.ed_ground

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(exactdiag, "ed_ground", counting)
        res = converge_cutoff(model)
        assert len(calls) == 1 and res.truncation_residual <= TOL_E

    @pytest.mark.parametrize("model", [
        ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=8),
        ladder(1.0, 1.0, 2.0, 0.0, 0.8, n_atoms=8),
        ladder(1.0, 1.0, 2.0, 0.1, 1.3, n_atoms=6),
        two_level(1.0, 1.0, 0.45, n_atoms=8),
        two_level(1.0, 1.0, 1.2, n_atoms=8),
        ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=10),
        ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=20),
    ], ids=lambda m: f"d{m.atom.d}-N{m.n_atoms}-lam{m.atom.couplings[-2, -1]:g}")
    def test_accepted_cutoff_is_within_tol_e(self, model):
        # the truncation residual bounds the e0 still to gain from photons
        res = converge_cutoff(model)
        assert abs(res.e0 - ed_ground(model, 2 * res.n_max_used).e0) <= TOL_E

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    def test_normal_phase_matches_holstein_primakoff(self, kappa):
        # e0 - E_HP is a clean 1/N: N (e0 - E_HP) is positive, about 7e-3 at
        # kappa 0 and 3.5e-3 at kappa 0.1, and converges in N with its steps
        # halving (the next order is 1/N^2)
        e_hp = oracles.holstein_primakoff_energy(1.0, 1.0, 0.3, kappa)
        scaled = [n * (converge_cutoff(two_level(1.0, 1.0, 0.3, kappa, n_atoms=n)).e0 - e_hp)
                  for n in (10, 20, 40, 80)]
        assert all(0.0 < s < 0.01 for s in scaled), scaled
        steps = np.diff(scaled)
        assert np.all(np.abs(steps[1:]) <= 0.6 * np.abs(steps[:-1])), scaled

    def test_superradiant_ladder_matches_mean_field(self):
        # e0/N = e* + a/N + O(1/N^2), so the Richardson combination
        # R(N) = 2 e0(2N)/(2N) - e0(N)/N - e* is O(1/N^2): 4.6e-6 at N = 10
        # and 1.1e-6 at N = 20, a quarter of it
        e_star = minimize(ladder(1.0, 1.0, 2.0, 0.1, 1.5)).e_star
        e0 = {n: converge_cutoff(ladder(1.0, 1.0, 2.0, 0.1, 1.5, n_atoms=n)).e0 / n
              for n in (10, 20, 40)}
        r10 = 2.0 * e0[20] - e0[10] - e_star
        r20 = 2.0 * e0[40] - e0[20] - e_star
        assert abs(r20) < 2e-6 and abs(r20) < 0.35 * abs(r10), (r10, r20)



class TestTruncationResidual:
    @pytest.mark.parametrize("kappa", [0.0, 0.15])
    def test_matches_padded_hamiltonian(self, kappa):
        # the rows beyond n_max of (H' - e0) psi~, with H' built at n_max + 2
        # and psi~ the ground vector zero-padded to it; for kappa > 0 both
        # are in the Bogoliubov photon basis, where ed_ground solves
        rng = np.random.default_rng(31)
        models = [DickeModel(1.0, AtomSpec([0.0, 1.0, 1.5], [[0.0, 0.35, 0.3], [0.35, 0.0, 0.0],
                                                             [0.3, 0.0, 0.0]]),
                             n_atoms=3, kappa=kappa)]
        for d in (2, 3, 4):
            eps = np.sort(np.concatenate([[0.0], rng.uniform(0.3, 2.5, d - 1)]))
            lam = np.triu(rng.uniform(-1.5, 1.5, (d, d)), 1)
            models.append(DickeModel(float(rng.uniform(0.5, 2.0)), AtomSpec(eps, lam + lam.T),
                                     n_atoms=int(rng.integers(1, 6)), kappa=kappa))
        for m in models:
            assert ed_ground(m, 0).truncation_residual == math.inf
            for n_max in range(1, 13):
                res = ed_ground(m, n_max)
                basis = build_basis(m.n_atoms, m.atom.d, n_max + 2)
                psi = np.zeros(basis.dim)
                psi[:res.psi0.size] = res.psi0
                # psi~ is zero in those rows, so they do not see e0 or its shift
                tail = (build_hamiltonian(_bogoliubov(m)[0], basis) @ psi
                        - res.e0 * psi)[res.psi0.size:]
                assert res.truncation_residual == pytest.approx(np.linalg.norm(tail),
                                                                rel=1e-12, abs=0.0)


class TestFirstOrderTransition:
    """ED locates the mean-field first-order transition of the lam01 = 0 ladder.

    At omega 1, eps 0/1/2 and kappa 0, mean field jumps at
    lam12 = (1 + sqrt 2)/2.  At finite N the ground state leaves the
    m_0 = N block, where pop_0 = 1 and e0 = 0 exactly, at lam_c(N); the
    shift is a clean 1/N, with N (lam_c(N) - lam_c) about -0.003.
    """

    @staticmethod
    def lam_c(n: int) -> float:
        def normal(lam):
            res = ed_ground(ladder(1.0, 1.0, 2.0, 0.0, lam, n_atoms=n), n_max=4 * n + 40)
            return res.populations[0] >= 0.5

        lo, hi = 1.0, 1.4
        assert normal(lo) and not normal(hi)
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if normal(mid) else (lo, mid)
        return 0.5 * (lo + hi)

    def test_transition_shift_is_order_one_over_n(self):
        shifts = {n: self.lam_c(n) - oracles.LADDER_LAMBDA_C for n in (5, 10)}
        assert all(abs(n * s) < 0.01 for n, s in shifts.items()), shifts
        assert abs(shifts[10]) < abs(shifts[5]), shifts


def fail_first_solve_of_step_2(monkeypatch) -> tuple[list, ConvergenceError]:
    """Make exactdiag.ground_state raise ConvergenceError(best_residual=0.125)
    once a second basis is built.  Returns the list of bases built and the
    error that is raised."""
    bases, error = [], ConvergenceError("injected failure", best_residual=0.125)
    build_basis, solve = exactdiag.build_basis, exactdiag.ground_state

    def counting_basis(*args, **kwargs):
        bases.append(build_basis(*args, **kwargs))
        return bases[-1]

    def failing_solve(*args, **kwargs):
        if len(bases) == 2:
            raise error
        return solve(*args, **kwargs)

    monkeypatch.setattr(exactdiag, "build_basis", counting_basis)
    monkeypatch.setattr(exactdiag, "ground_state", failing_solve)
    return bases, error


class TestOutputHelpers:
    def test_csv_header_and_row(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.5, n_atoms=4)
        res = converge_cutoff(m)
        header = ed_csv_header(3)
        assert header == ["N", "n_max_used", "coupling_01", "coupling_02",
                          "coupling_12", "e0_per_atom", "photon_density", "quad",
                          "pop_0", "pop_1", "pop_2", "parity", "residual_norm"]
        row = ed_csv_row(res, m)
        assert len(row) == len(header)
        assert row[0] == 4
        assert float(row[4]) == 1.5
        assert float(row[5]) == res.e0_per_atom

    def test_dump_state_layout(self, tmp_path):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.3, n_atoms=3)
        res = ed_ground(m, n_max=20)
        basis = build_basis(3, 3, 20)
        path = tmp_path / "psi0.npz"
        dump_state(path, res)
        data = np.load(path)
        assert int(data["n_atoms"]) == 3 and int(data["d"]) == 3
        assert int(data["n_max"]) == 20
        coeffs = data["coefficients"]
        idx = data["indices"]
        assert np.all(np.abs(coeffs[:-1]) >= np.abs(coeffs[1:]))   # magnitude order
        rebuilt = np.zeros(basis.dim)
        rebuilt[idx] = coeffs
        assert np.linalg.norm(rebuilt) == pytest.approx(1.0, abs=1e-12)
        assert abs(rebuilt @ res.psi0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("solve", [
        lambda m: ed_ground(m, n_max=20),
        lambda m: converge_cutoff(m),
    ], ids=["ed_ground", "converge_cutoff"])
    def test_result_carries_state_for_dump(self, tmp_path, solve):
        # two parity blocks of ~300 states each: Lanczos, psi0 zero off one block
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.3, n_atoms=6)
        res = solve(m)
        basis = build_basis(6, 3, res.n_max_used)
        assert res.psi0.shape == (basis.dim,)
        assert np.linalg.norm(res.psi0) == pytest.approx(1.0, abs=1e-12)
        # the layout written from an explicit basis object
        nz = np.flatnonzero(res.psi0)
        order = nz[np.argsort(-np.abs(res.psi0[nz]), kind="stable")]
        np.savez(tmp_path / "ref.npz", indices=order.astype(np.int64),
                 coefficients=res.psi0[order], n_atoms=basis.n_atoms, d=basis.d,
                 n_max=basis.n_max)
        dump_state(tmp_path / "psi0.npz", res)
        assert (tmp_path / "psi0.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()
