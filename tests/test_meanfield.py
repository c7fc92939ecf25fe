import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from dickelab import (
    AtomSpec,
    BracketError,
    DickeModel,
    SolverError,
    critical_coupling,
    energy_density,
    ladder,
    minimize,
    no_go_check,
    scan_order_parameter,
    two_level,
    write_scan_csv,
)
from dickelab import meanfield
from dickelab.meanfield import _refine, _scan_arrays, _solve_batch, _x_max
from dickelab.model import single_atom_matrices


def random_atom(rng, d):
    eps = np.sort(np.concatenate([[0.0], rng.uniform(0.2, 3.0, d - 1)]))
    lam = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            lam[j, k] = lam[k, j] = rng.normal(0.0, 1.0)
    return AtomSpec(eps, lam)


def odd_cycle_model(lam02: float = 0.40) -> DickeModel:
    """Couplings 0-1, 1-2 and 0-2 form an odd cycle, so e(-x) != e(x).  At
    lam02 = 0.40 the only minimum below e(0) = 0 is at x = -0.169."""
    lam = [[0.0, 0.3, lam02], [0.3, 0.0, 0.2], [lam02, 0.2, 0.0]]
    return DickeModel(1.0, AtomSpec([0.0, 0.559, 1.899], lam))


def two_coloured(adj) -> bool:
    """Reference bipartiteness test: two-colour each component by search."""
    d = len(adj)
    colour = [None] * d
    for start in range(d):
        if colour[start] is not None:
            continue
        colour[start], todo = 0, [start]
        while todo:
            u = todo.pop()
            for v in range(d):
                if adj[u][v] and colour[v] is None:
                    colour[v] = 1 - colour[u]
                    todo.append(v)
                elif adj[u][v] and colour[v] == colour[u]:
                    return False
    return True


def model_at(model, which, lam, tie=None):
    """model with the scanned pair at lam and each tied pair at ratio * lam."""
    return model.with_couplings({which: lam, **{pair: ratio * lam
                                                for pair, ratio in (tie or {}).items()}})


def minimize_at(model, which, lam, tie=None):
    return minimize(model_at(model, which, lam, tie))


def bisection_reference(model, which, bracket, tie=None):
    """The plain bisection of the indicator that critical_coupling ran before
    its Newton search: (couplings solved in order, final midpoint, order)."""
    lo, hi = bracket
    visited = [lo, hi]
    width = meanfield.REL_WIDTH * (hi - lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        if minimize_at(model, which, mid, tie).superradiant:
            hi = mid
        else:
            lo = mid
    lam_c = 0.5 * (lo + hi)
    delta = meanfield.DELTA_REL * lam_c
    below, above = (minimize_at(model, which, lam, tie).x_star
                    for lam in (lam_c - delta, lam_c + delta))
    order = "first" if abs(above - below) > meanfield.JUMP_THRESHOLD else "second"
    return visited, lam_c, order


def count_solves(monkeypatch) -> list:
    """Record the coupling matrix of every parameter set that _solve_batch
    solves, in call order and, within a call, in batch order."""
    seen, solve_batch = [], meanfield._solve_batch

    def spy(omega_eff, energies, couplings):
        seen.extend(c.copy() for c in couplings)
        return solve_batch(omega_eff, energies, couplings)

    monkeypatch.setattr(meanfield, "_solve_batch", spy)
    return seen




def count_calls(monkeypatch) -> list:
    """Record the number of parameter sets of each _solve_batch call."""
    calls, solve_batch = [], meanfield._solve_batch

    def spy(omega_eff, energies, couplings):
        calls.append(len(couplings))
        return solve_batch(omega_eff, energies, couplings)

    monkeypatch.setattr(meanfield, "_solve_batch", spy)
    return calls


def newton_iterate(model, which, lam, tie=None):
    """lam - e_sr / e_sr' from a full solve at lam: e_sr the lowest local
    minimum at x != 0, its slope 2 x c_0^T (dC/dlam) c_0."""
    sol = minimize_at(model, which, lam, tie)
    x, e = min((m for m in sol.local_minima if m[0] != 0.0), key=lambda m: m[1])
    C, C1, C0 = (model_at(model, which, v, tie).atom.couplings for v in (lam, 1.0, 0.0))
    dC = C1 - C0
    c = np.linalg.eigh(np.diag(model.atom.energies) + 2.0 * x * C)[1][:, 0]
    return lam - e / (2.0 * x * (c @ dC @ c))


def certified_bracket(model, which, bracket, tie, lams):
    """The bracket that full solves at lams, in order, leave: each one in
    the bracket moves the end on its side."""
    lo, hi = bracket
    for lam in lams:
        if lo <= lam <= hi:
            if minimize_at(model, which, lam, tie).superradiant:
                hi = lam
            else:
                lo = lam
    assert not minimize_at(model, which, lo, tie).superradiant
    assert minimize_at(model, which, hi, tie).superradiant
    return lo, hi


def random_transitions(seed: int, n: int):
    """n random d = 2-4 critical searches: (model, which, bracket, tie).

    Level ties, kappa, omega, a tie between couplings and missing couplings
    all vary, so both bipartite and odd-cycle atoms occur.  The bracket ends
    are points of a coarse scan, normal below and superradiant above its
    first superradiant point.
    """
    rng = np.random.default_rng(seed)
    values = np.linspace(0.0, 4.0, 41)
    out = []
    while len(out) < n:
        d = int(rng.integers(2, 5))
        eps = np.sort(np.concatenate([[0.0], rng.uniform(0.2, 3.0, d - 1)]))
        if d > 2 and rng.random() < 0.2:
            eps[2] = eps[1]
        lam = np.zeros((d, d))
        for j in range(d):
            for k in range(j + 1, d):
                if rng.random() < 0.7:
                    lam[j, k] = lam[k, j] = rng.normal(0.0, 0.5)
        which = tuple(int(i) for i in sorted(rng.choice(d, 2, replace=False)))
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d) if (j, k) != which]
        tie = None
        if pairs and rng.random() < 0.5:
            tie = {pairs[int(rng.integers(len(pairs)))]: float(rng.uniform(-0.5, 0.5))}
        kappa = float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0
        model = DickeModel(float(rng.uniform(0.3, 3.0)), AtomSpec(eps, lam), kappa=kappa)
        sr = [s.superradiant for s in scan_order_parameter(model, which, values, tie=tie)]
        if sr[0] or not any(sr):
            continue
        first = sr.index(True)
        above = [i for i in range(first, first + 10) if i < values.size and sr[i]]
        lo = values[int(rng.integers(0, first))]
        hi = values[int(rng.choice(above))]
        out.append((model, which, (float(lo), float(hi)), tie))
    return out


class TestEnergyDensity:
    def test_zero_field_is_ground_energy(self):
        m = two_level(1.0, 1.0, 0.5)
        assert energy_density(m, 0.0) == 0.0

    def test_two_level_closed_form(self):
        m = two_level(1.0, 1.0, 0.5)
        xs = np.linspace(0.0, 2.0, 101)
        expected = xs**2 + 0.5 - np.sqrt(0.25 + xs**2)
        np.testing.assert_allclose(energy_density(m, xs), expected, atol=1e-14)
        # lam = lam_c exactly: flat minimum at x = 0
        assert np.all(energy_density(m, xs[1:]) > 0.0)

    def test_ladder_degenerate_point(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.2071)
        assert abs(energy_density(m, 1.1892)) < 1e-3

    def test_rayleigh_vs_charpoly(self):
        # same e(x) through an independent characteristic-polynomial route
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            atom = random_atom(rng, d)
            m = DickeModel(rng.uniform(0.5, 2.0), atom, kappa=rng.uniform(0.0, 0.5))
            x = rng.uniform(0.0, 3.0)
            mine = energy_density(m, x)
            ref = m.omega_eff * x**2 + oracles.charpoly_min_eig(
                atom.energies, atom.couplings, x)
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_kappa_stiffens_photon(self):
        m = two_level(1.0, 1.0, 0.5, kappa=0.25)
        assert energy_density(m, 1.0) == pytest.approx(
            energy_density(m.with_kappa(0.0), 1.0) + 1.0)


class TestMinimize:
    def test_below_critical(self):
        sol = minimize(two_level(1.0, 1.0, 0.45))
        assert sol.x_star == 0.0
        assert not sol.superradiant
        np.testing.assert_allclose(sol.occupations, [1.0, 0.0], atol=1e-12)

    def test_two_level_above_critical_matches_closed_form(self):
        lam = 0.75
        sol = minimize(two_level(1.0, 1.0, lam))
        assert sol.x_star == pytest.approx(oracles.two_level_x_star(1.0, 1.0, lam), abs=1e-7)
        assert sol.e_star == pytest.approx(oracles.two_level_e_star(1.0, 1.0, lam), abs=1e-12)

    def test_ladder_below_critical(self):
        sol = minimize(ladder(1.0, 1.0, 2.0, 0.0, 1.0))
        assert sol.x_star == 0.0
        np.testing.assert_allclose(sol.occupations, [1.0, 0.0, 0.0], atol=1e-12)

    def test_occupation_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            m = DickeModel(rng.uniform(0.5, 2.0), random_atom(rng, d),
                           kappa=rng.uniform(0.0, 0.3))
            sol = minimize(m)
            assert abs(sol.occupations.sum() - 1.0) <= 1e-12
            assert np.all(sol.occupations >= -1e-15)
            assert np.all(sol.occupations <= 1.0 + 1e-15)
            assert sol.e_star <= energy_density(m, 0.0) + 1e-15

    def test_global_minimum_against_random_probes(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            m = DickeModel(rng.uniform(0.5, 2.0), random_atom(rng, d))
            sol = minimize(m)
            xmax = float(_x_max(np.array([m.omega_eff]), m.atom.energies,
                                m.atom.couplings[None])[0])
            probes = rng.uniform(0.0, xmax, 1000)
            assert np.all(sol.e_star <= energy_density(m, probes) + 1e-9)

    def test_two_competing_minima_near_first_order(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.205)   # just below lam_c
        sol = minimize(m)
        assert sol.x_star == 0.0
        assert sol.n_local_minima == 2           # x = 0 plus the metastable branch

    def test_zero_is_listed_only_where_it_is_a_minimum(self):
        # two-level lam 0.7: e''(0) = 2 - 8 * 0.49 < 0, so x = 0 is a maximum
        sol = minimize(two_level(1.0, 1.0, 0.7))
        assert sol.n_local_minima == 1
        assert [x for x, _ in sol.local_minima] == [sol.x_star]
        assert sol.x_star == pytest.approx(oracles.two_level_x_star(1.0, 1.0, 0.7), abs=1e-7)
        # below lam_c x = 0 is the one minimum, and at lam_c (e''(0) = 0) too
        for lam in (0.45, 0.5):
            assert minimize(two_level(1.0, 1.0, lam)).local_minima == ((0.0, 0.0),)

    def test_decoupled_model(self):
        atom = AtomSpec([0.0, 1.0, 2.0], np.zeros((3, 3)))
        sol = minimize(DickeModel(1.0, atom))
        assert sol.x_star == 0.0
        assert sol.e_star == 0.0


class TestScan:
    def test_two_level_second_order_continuity(self):
        # square-root onset: |x*(lam + delta) - x*(lam)| <= C sqrt(delta)
        lam_c = 0.5
        deltas = np.array([4e-3, 1e-3, 2.5e-4])
        vals = np.concatenate([[lam_c], lam_c + np.cumsum(deltas)])
        sols = scan_order_parameter(two_level(1.0, 1.0, 0.1), (0, 1), vals)
        xs = np.array([s.x_star for s in sols])
        steps = np.abs(np.diff(xs))
        # dx^2/dlam = 2 at this point, so C = sqrt(2) plus margin
        assert np.all(steps <= 2.0 * np.sqrt(deltas))

    def test_two_level_matches_closed_form_curve(self):
        vals = np.linspace(0.3, 0.9, 25)
        sols = scan_order_parameter(two_level(1.0, 1.0, 0.1), (0, 1), vals)
        for lam, sol in zip(vals, sols):
            assert sol.x_star == pytest.approx(
                oracles.two_level_x_star(1.0, 1.0, lam), abs=1e-6)

    def test_ladder_jump(self):
        vals = np.array([1.15, 1.19, 1.23, 1.27])
        sols = scan_order_parameter(ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), vals)
        xs = [s.x_star for s in sols]
        assert xs[0] == 0.0 and xs[1] == 0.0
        assert xs[2] > 1.1     # jumped straight to the upper branch

    def test_zero_couplings(self):
        atom = AtomSpec([0.0, 1.0], np.zeros((2, 2)))
        sols = scan_order_parameter(DickeModel(1.0, atom), (0, 1),
                                    np.array([0.0, 1e-12]))
        assert all(s.x_star == 0.0 for s in sols)

    def test_values_must_ascend(self):
        m = two_level(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="ascending"):
            scan_order_parameter(m, (0, 1), [0.5, 0.4])
        with pytest.raises(ValueError, match="ascending"):
            scan_order_parameter(m, (0, 1), [0.5])

    def test_values_finite_and_bounded(self, monkeypatch):
        # a nan compares false, so the ascending rule alone lets it through;
        # a scan takes about 1 kB per value, so its length is capped like
        # no_go_check's n_points.  Both are rejected before any solve
        m = two_level(1.0, 1.0, 0.1)
        monkeypatch.setattr(meanfield, "_solve_batch", None)
        for values in ([math.nan, 0.5, 1.0], [0.5, math.inf], [-math.inf, 0.5]):
            with pytest.raises(ValueError, match="values must be finite"):
                scan_order_parameter(m, (0, 1), values)
        with pytest.raises(ValueError, match="at most 100000 entries"):
            scan_order_parameter(m, (0, 1), np.arange(meanfield.N_POINTS_MAX + 1.0))
        meanfield.check_scan_values(np.arange(float(meanfield.N_POINTS_MAX)))

    def test_deterministic(self):
        m = ladder(1.0, 1.0, 2.0, 0.05, 1.0)
        vals = np.linspace(0.8, 1.6, 9)
        a = scan_order_parameter(m, (1, 2), vals)
        b = scan_order_parameter(m, (1, 2), vals)
        assert [s.x_star for s in a] == [s.x_star for s in b]
        assert [s.e_star for s in a] == [s.e_star for s in b]

    @pytest.mark.parametrize("model, which, values, tie", [
        (two_level(1.0, 1.0, 0.3), (0, 1), np.linspace(0.0, 1.5, 777), {}),
        (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), np.linspace(0.5, 2.0, 300), {(0, 1): 0.05}),
    ], ids=["two_level", "tied_ladder"])
    def test_e_star_is_energy_density_at_x_star(self, model, which, values, tie):
        sols = scan_order_parameter(model, which, values, tie=tie)
        for value, sol in zip(values, sols):
            pairs = {which: value, **{pair: ratio * value for pair, ratio in tie.items()}}
            assert sol.e_star == energy_density(model.with_couplings(pairs), sol.x_star)

    # each would set another coupling than the one named: the scanned pair
    # rescaled to ratio * value, a diagonal entry, or an index error
    BAD_TIES = {"scanned": (1, 2), "scanned_reversed": (2, 1), "diagonal": (1, 1),
                "out_of_range": (0, 3), "negative": (-1, 0)}

    @pytest.mark.parametrize("pair", list(BAD_TIES.values()), ids=list(BAD_TIES))
    def test_bad_tie_raises_naming_the_pair(self, pair):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.0)
        with pytest.raises(ValueError, match=re.escape(str(pair))):
            scan_order_parameter(m, (1, 2), np.linspace(1.2, 1.4, 3), tie={pair: 0.5})
        with pytest.raises(ValueError, match=re.escape(str(pair))):
            critical_coupling(m, (1, 2), (1.0, 1.6), tie={pair: 0.5})

    @pytest.mark.parametrize("which", [(-2, -1), (1, 1), (0, 3), (0.5, 1), (1.0, 2), (True, 2)],
                             ids=["negative", "diagonal", "out_of_range", "float",
                                  "integral_float", "bool"])
    def test_bad_scanned_pair_raises(self, which):
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.0)
        with pytest.raises(ValueError, match=re.escape(str(which))):
            scan_order_parameter(m, which, np.linspace(1.2, 1.4, 3))
        with pytest.raises(ValueError, match=re.escape(str(which))):
            critical_coupling(m, which, (1.0, 1.6))

    def test_tie_coscales_other_pair(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
        tied = scan_order_parameter(m, (1, 2), [1.4, 1.5], tie={(0, 1): 0.05})
        explicit = scan_order_parameter(
            m.with_couplings({(0, 1): 0.05 * 1.4}), (1, 2), [1.4, 1.4 + 1e-9])
        assert tied[0].x_star == pytest.approx(explicit[0].x_star, abs=1e-8)


class TestGridChunks:
    @staticmethod
    def _batches():
        # a tied ladder scan and a TRK-saturated no-go batch, B = 1000 and
        # 300, neither a multiple of the default 32 rows per chunk
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5)
        scan = scan_order_parameter(m, (1, 2), np.linspace(0.0, 2.0, 1000),
                                    tie={(0, 1): 0.05})
        C, _ = _scan_arrays(m, (0, 1), np.linspace(0.0, 3.0, 300), tie=None)
        omega_eff = m.omega + 4.0 * C[:, 0, 1] ** 2 / float(m.atom.energies[1])
        return scan + _solve_batch(omega_eff, m.atom.energies, C)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        default = self._batches()
        monkeypatch.setattr(meanfield, "_GRID_CHUNK", meanfield.GRID_POINTS)  # one row each
        single = self._batches()
        assert [s.x_star for s in single] == [s.x_star for s in default]
        assert [s.e_star for s in single] == [s.e_star for s in default]
        assert [s.local_minima for s in single] == [s.local_minima for s in default]
        for a, b in zip(single, default):
            assert np.array_equal(a.occupations, b.occupations)
            assert not a.occupations.flags.writeable
            with pytest.raises(ValueError):
                a.occupations[0] = 1.0

    def test_scan_memory_bounded_by_chunk(self):
        # the whole-batch grid stack of a 2000-point d=3 scan is 74 MB on its own
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.5)
        tracemalloc.start()
        try:
            scan_order_parameter(m, (1, 2), np.linspace(0.0, 2.0, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


def eigvalsh_lowest(energies, couplings, xs):
    """The grid's lowest eigenvalues from LAPACK: the reference that
    _grid_lowest must reproduce."""
    return np.linalg.eigvalsh(single_atom_matrices(energies, couplings[:, None], xs))[..., 0]


def random_grid_batch(rng, d, rows):
    """omega_eff, energies and couplings of rows random d-level sets sharing
    their energies: a degenerate eps_0 = eps_1 (and eps_1 = eps_2) in a
    quarter of the batches each, and every coupling zero with probability 0.3."""
    eps = np.sort(np.concatenate([[0.0], rng.uniform(0.05, 3.0, d - 1)]))
    if rng.random() < 0.25:
        eps[1] = 0.0
    if d == 3 and rng.random() < 0.25:
        eps[2] = eps[1]
    lam = np.triu(rng.normal(0.0, 1.0, (rows, d, d)), 1)
    lam[rng.random(lam.shape) < 0.3] = 0.0
    return rng.uniform(0.1, 2.0, rows), eps, lam + lam.transpose(0, 2, 1)


class TestGridKernel:
    def test_values_match_eigvalsh(self):
        # d = 2: a few ulps of the matrix norm.  d = 3: the trigonometric
        # form's error grows as eps |A|^2 / gap near a degenerate lowest
        # pair, about 1e-11 |A| at gap 1e-6 |A|, and is far below 1e-12 |A|
        # at gaps of 1e-3 |A| and more
        rng = np.random.default_rng(7)
        ulp = np.finfo(float).eps
        for d in (2, 3):
            for _ in range(100):
                _, eps, lam = random_grid_batch(rng, d, 8)
                xs = rng.uniform(0.0, 3.0, (8, 64))
                w = np.linalg.eigvalsh(single_atom_matrices(eps, lam[:, None], xs))
                norm = np.abs(w).max(axis=-1)
                err = np.abs(meanfield._grid_lowest(eps, lam, xs) - w[..., 0])
                if d == 2:
                    assert np.all(err <= 4.0 * ulp * norm)
                    continue
                gap = w[..., 1] - w[..., 0]
                away = gap >= 1e-6 * norm
                assert np.all(err[away] <= 1e-12 * norm[away] + ulp * norm[away] ** 2 / gap[away])
                wide = gap >= 1e-3 * norm
                assert np.all(err[wide] <= 1e-12 * norm[wide])

    def test_brackets_match_eigvalsh_grid(self, monkeypatch):
        # 1200 random two- and three-level sets, plus a lam01 = 0 ladder
        # scanned across its first-order level crossing
        rng = np.random.default_rng(11)
        batches = [random_grid_batch(rng, 2 + i % 2, 10) for i in range(120)]
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
        C, omega_eff = _scan_arrays(m, (1, 2), np.linspace(0.0, 3.0, 200), tie=None)
        batches.append((omega_eff, m.atom.energies, C))

        def brackets(omega_eff, eps, lam):
            x_hi = _x_max(omega_eff, eps, lam)
            return [a.tolist() for a in meanfield._grid_brackets(omega_eff, eps, lam, x_hi)]

        kernel = [brackets(*b) for b in batches]
        monkeypatch.setattr(meanfield, "_grid_lowest", eigvalsh_lowest)
        assert kernel == [brackets(*b) for b in batches]

    def test_no_grid_stack_for_small_atoms(self, monkeypatch):
        # LAPACK sees only the brackets' grid points, the refinement and x*
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for model in (two_level(1.0, 1.0, 0.8), ladder(1.0, 1.0, 2.0, 0.1, 1.5)):
            minimize(model)
        assert calls and all(math.prod(shape[:-2]) < meanfield.GRID_POINTS for shape in calls), calls

    @pytest.mark.parametrize("model", [
        ladder(1.0, 1.0, 2.0, 0.1, 1.5),
        ladder(1.0, 1.0, 2.0, 0.0, 1.5, kappa=0.05),
        two_level(1.0, 1.0, 0.8),
    ], ids=["ladder", "ladder_lam01_0", "two_level"])
    def test_scaled_models_keep_x_star(self, model, monkeypatch):
        # omega, eps, lam and kappa times 2^k: the powers of the matrix
        # entries under- or overflow unless the closed form rescales first
        def scaled(k):
            s = 2.0 ** k
            atom = AtomSpec(s * model.atom.energies, s * model.atom.couplings)
            return DickeModel(s * model.omega, atom, kappa=s * model.kappa)

        ks = (-600, -300, 0, 300)
        kernel = [minimize(scaled(k)).x_star for k in ks]
        monkeypatch.setattr(meanfield, "_grid_lowest", eigvalsh_lowest)
        assert kernel == [minimize(scaled(k)).x_star for k in ks]
        assert min(kernel) > 0.1     # superradiant at every scale, not a trivial x* = 0
        with pytest.raises(SolverError, match="scan range overflows"):
            minimize(scaled(600))

    def test_four_levels_take_eigvalsh(self):
        rng = np.random.default_rng(3)
        eps = np.array([0.0, 0.7, 1.1, 2.4])
        lam = np.triu(rng.normal(0.0, 1.0, (5, 4, 4)), 1)
        lam = lam + lam.transpose(0, 2, 1)
        xs = rng.uniform(0.0, 2.0, (5, 40))
        assert np.array_equal(meanfield._grid_lowest(eps, lam, xs), eigvalsh_lowest(eps, lam, xs))


def full_grid_brackets(omega_eff, energies, couplings, x_hi):
    """_grid_brackets on every grid point, both ends tested: the reference
    that skipping the grid past L / omega_eff must reproduce."""
    grid = np.linspace(0.0, 1.0, meanfield.GRID_POINTS)
    rows = meanfield._GRID_CHUNK // meanfield.GRID_POINTS
    cols = np.r_[1:meanfield.GRID_POINTS - 1, 0, meanfield.GRID_POINTS - 1]
    owners, ks = [], []
    for start in range(0, couplings.shape[0], rows):
        chunk = slice(start, start + rows)
        xs = x_hi[chunk, None] * grid[None, :]
        e = omega_eff[chunk, None] * xs**2 + meanfield._grid_lowest(energies, couplings[chunk], xs)
        is_min = np.concatenate([(e[:, 1:-1] <= e[:, :-2]) & (e[:, 1:-1] <= e[:, 2:]),
                                 e[:, :1] <= e[:, 1:2], e[:, -1:] <= e[:, -2:-1]], axis=1)
        r, c = np.nonzero(is_min)
        owners.append(start + r)
        ks.append(cols[c])
    return np.concatenate(owners), np.concatenate(ks)


class TestGridTail:
    @staticmethod
    def same_as_full_grid(got, *args) -> bool:
        """got, the brackets _grid_brackets(*args) gave, equal the full grid's."""
        return all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, full_grid_brackets(*args)))

    def test_random_batches_match_the_full_grid(self):
        # d = 2-5 (d >= 4 on the eigvalsh path, in smaller batches) at
        # scales 2^-300, 1 and 2^300; a degenerate eps_0 = eps_1 and rows
        # without couplings (L = 0) occur in many batches
        rng = np.random.default_rng(31)
        for d, batches, rows in ((2, 60, 40), (3, 60, 40), (4, 12, 6), (5, 12, 6)):
            for i in range(batches):
                omega_eff, eps, lam = random_grid_batch(rng, d, rows)
                for s in (2.0**-300, 1.0, 2.0**300):
                    args = (s * omega_eff, s * eps, s * lam)
                    args += (_x_max(*args),)
                    assert self.same_as_full_grid(meanfield._grid_brackets(*args), *args), (d, i, s)

    def test_solves_match_the_full_grid(self, monkeypatch):
        # every _grid_brackets call of a solve: an odd-cycle atom (its -lam
        # rows), the lam01 = 0 ladder across its first-order crossing,
        # kappa > 0, and a TRK no-go scan whose omega_eff varies by row
        calls, grid_brackets = [], meanfield._grid_brackets

        def spy(*args):
            got = grid_brackets(*args)
            calls.append(self.same_as_full_grid(got, *args))
            return got

        monkeypatch.setattr(meanfield, "_grid_brackets", spy)
        minimize(odd_cycle_model())
        scan_order_parameter(odd_cycle_model(), (0, 2), np.linspace(0.0, 1.0, 50))
        scan_order_parameter(ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), np.linspace(0.0, 3.0, 200))
        scan_order_parameter(ladder(1.0, 1.0, 2.0, 0.1, 1.5, kappa=0.3), (1, 2),
                             np.linspace(0.0, 3.0, 100), tie={(0, 1): 0.05})
        no_go_check(ladder(1.0, 1.0, 2.0, 0.1, 1.0), 3.0, 300, which=(1, 2),
                    kappa_rule="trk-ground")
        assert len(calls) == 5 and all(calls)

    def test_ladder_scan_skips_the_rising_tail(self, monkeypatch):
        # the benchmark's 1000-point lam01 = 0 ladder scan: L / omega_eff is
        # 0.29-0.34 of x_max there, so about a third of the grid is evaluated
        seen, grid_lowest = [], meanfield._grid_lowest

        def spy(energies, couplings, xs):
            seen.append(xs.size)
            return grid_lowest(energies, couplings, xs)

        monkeypatch.setattr(meanfield, "_grid_lowest", spy)
        values = np.linspace(1.0, 1.5, 1000)
        scan_order_parameter(ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), values)
        assert sum(seen) <= 0.45 * values.size * meanfield.GRID_POINTS


def _as_tuple(sol):
    return (sol.x_star, sol.e_star, sol.occupations.tobytes(), sol.local_minima)


def _tied_ladder_batch():
    m = ladder(1.0, 1.0, 2.0, 0.1, 1.5)
    C, omega_eff = _scan_arrays(m, (1, 2), np.array([1.5, 0.008, 0.3, 1.2]), tie={(0, 1): 0.05})
    omega_eff[1] = 3e-4
    return omega_eff, m.atom.energies, C


def _degenerate_pairs_batch():
    # two copies of a two-level atom, 0-2 and 1-3; when the copies are equal
    # the ground level is degenerate at every x, e'' is nan, and the brackets
    # converge by midpoints, so any change of tolerance or step count shows
    # in x*
    C = np.zeros((4, 4, 4))
    for b, (lam02, lam13) in enumerate([(0.8, 0.8), (0.005, 0.005), (1.2, 1.2), (0.8, 0.3)]):
        C[b, 0, 2] = C[b, 2, 0] = lam02
        C[b, 1, 3] = C[b, 3, 1] = lam13
    return np.array([1.0, 3e-4, 1.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]), C


# set 1 of each batch is normal, with omega_eff 3e-4, and has a 30 times
# larger scan range than set 0
BATCHES = {"tied_ladder": _tied_ladder_batch, "degenerate_pairs": _degenerate_pairs_batch}


class TestRefinement:
    # the benchmark's two 1000-point scans
    SCANS = {
        "two_level": (two_level(1.0, 1.0, 0.1), (0, 1), np.linspace(0.3, 1.0, 1000),
                      lambda v: oracles.two_level_x_star(1.0, 1.0, v),
                      lambda v: oracles.two_level_e_star(1.0, 1.0, v)),
        "ladder": (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), np.linspace(1.0, 1.5, 1000),
                   lambda v: oracles.ladder_x_star(1.0, v),
                   lambda v: oracles.ladder_e_star(1.0, v)),
    }

    @pytest.mark.parametrize("case", list(SCANS))
    def test_scan_matches_closed_form(self, case):
        model, which, values, x_star, e_star = self.SCANS[case]
        sols = scan_order_parameter(model, which, values)
        x_err = [abs(s.x_star - x_star(v)) for s, v in zip(sols, values)]
        e_err = [abs(s.e_star - e_star(v)) for s, v in zip(sols, values)]
        assert max(x_err) <= 1e-12 and max(e_err) <= 1e-12, (max(x_err), max(e_err))

    @pytest.mark.parametrize("case", list(BATCHES))
    def test_result_does_not_depend_on_the_batch(self, case):
        omega_eff, energies, C = BATCHES[case]()
        # each bracket stops on its own owner's tolerance and is then frozen,
        # also next to set 1, a normal set whose scan range is 30 times larger
        x_max = _x_max(omega_eff, energies, C)
        assert x_max[1] > 30.0 * x_max[0]
        batch = _solve_batch(omega_eff, energies, C)
        assert batch[0].x_star > 0.0 and batch[1].x_star == 0.0
        for b in range(4):
            alone = _solve_batch(omega_eff[b:b + 1], energies, C[b:b + 1])[0]
            assert _as_tuple(alone) == _as_tuple(batch[b])
        reordered = _solve_batch(omega_eff[::-1], energies, C[::-1])[::-1]
        assert [_as_tuple(s) for s in reordered] == [_as_tuple(s) for s in batch]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_above_the_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        m = DickeModel(rng.uniform(0.2, 2.0), random_atom(rng, 3), kappa=rng.uniform(0.0, 0.3))
        sol = minimize(m)
        x_max = float(_x_max(np.array([m.omega_eff]), m.atom.energies, m.atom.couplings[None])[0])
        _, e_grid = oracles.grid_minimum(m.atom.energies, m.atom.couplings, m.omega_eff, x_max,
                                         n=20_001)
        assert sol.e_star <= e_grid + 1e-12

    def test_refinement_above_its_grid_point_keeps_the_grid_point(self, monkeypatch):
        # a refinement that ends on its bracket's upper end, never below the
        # grid point the bracket was built around
        monkeypatch.setattr(meanfield, "_refine", lambda *args: args[-2].copy())
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.3)
        sol = minimize(m)
        x_max = float(_x_max(np.array([m.omega_eff]), m.atom.energies, m.atom.couplings[None])[0])
        xs = x_max * np.linspace(0.0, 1.0, meanfield.GRID_POINTS)
        e = energy_density(m, xs)
        assert sol.x_star == xs[np.argmin(e)]
        assert sol.e_star == e.min()

    @pytest.mark.parametrize("model, n_minima, max_calls", [
        (ladder(1.0, 1.0, 2.0, 0.0, 1.3), 2, 8),
        (ladder(1.0, 1.0, 2.0, 0.13, 1.3, kappa=0.05), 2, 8),
        (ladder(1.0, 1.0, 2.0, 0.1 * 1.3065086510032415, 1.3065086510032415, kappa=0.05), 2, 8),
        # e ~ x^4 at lam_c: Newton shrinks x only by 2/3 a step (31 steps);
        # a step that does not halve goes to the midpoint instead (23)
        (two_level(1.0, 1.0, 0.5), 1, 26),
    ], ids=["ladder", "tied_ladder", "tied_ladder_at_lam_c", "two_level_at_lam_c"])
    def test_few_eigh_calls(self, model, n_minima, max_calls, monkeypatch):
        # Newton from each bracket's midpoint, plus one call for the
        # occupations; a Newton point on the x = 0 end of the bracket is
        # taken, not bisected towards
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        sol = minimize(model)
        assert sol.n_local_minima == n_minima
        assert len(calls) <= max_calls, calls

    def test_nonpositive_curvature_steps_to_the_midpoint(self, monkeypatch):
        # two-level atom at lam = 1: e'' < 0 below x = 0.308, x* = sqrt(15)/4
        points = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            points.append(a[:, 0, 1] / 2.0)       # 2 x lam_01 with lam_01 = 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        m = two_level(1.0, 1.0, 1.0)
        lo, hi = np.array([-0.6]), np.array([1.1])
        x = _refine(np.array([m.omega_eff]), m.atom.energies, m.atom.couplings[None],
                    np.array([0]), lo, hi, np.array([1e-12]))
        h = 1e-4
        curvature = np.diff(oracles.two_level_energy(1.0, 1.0, 1.0, 0.25 + h * np.arange(-1, 2)), 2)
        assert curvature[0] < 0.0
        # e(x) is even, so the bracket [-0.6, 1.1] holds the one minimum
        # x* and starts at 0.25, where e'' < 0 and e' < 0: the second point
        # is the midpoint of [start, 1.1]
        start = 0.5 * (-0.6 + 1.1)
        assert points[0][0] == start and points[1][0] == 0.5 * (start + 1.1)
        assert x[0] == pytest.approx(oracles.two_level_x_star(1.0, 1.0, 1.0), abs=1e-14)

    def test_degenerate_ground_level_converges_by_midpoints(self, monkeypatch):
        # e'' is nan (0/0) at every step, so every step is a midpoint; set 0
        # of the degenerate pairs is two equal copies of a two-level atom
        omega_eff, energies, C = _degenerate_pairs_batch()
        sol = _solve_batch(omega_eff[:1], energies, C[:1])[0]
        assert sol.x_star == pytest.approx(oracles.two_level_x_star(1.0, 1.0, 0.8), abs=1e-11)
        assert sol.e_star == pytest.approx(oracles.two_level_e_star(1.0, 1.0, 0.8), abs=1e-14)
        atom = AtomSpec([0.0, 0.0, 1.0], np.zeros((3, 3)))
        sol = minimize(DickeModel(1.0, atom))
        assert (sol.x_star, sol.e_star, sol.local_minima) == (0.0, 0.0, ((0.0, 0.0),))
        monkeypatch.setattr(meanfield, "_NEWTON_MAX", 20)
        with pytest.raises(SolverError, match="20 steps hit for parameter set 0"):
            minimize(DickeModel(1.0, atom))


def curvature(model: DickeModel) -> float:
    return float(meanfield._curvature_at_zero(np.array([model.omega_eff]), model.atom.energies,
                                              model.atom.couplings[None])[0])


def second_difference(model: DickeModel, h: float = 1e-4) -> float:
    e = energy_density(model, np.array([-h, 0.0, h]))
    return float((e[0] - 2.0 * e[1] + e[2]) / h**2)


class TestCurvatureAtZero:
    def test_matches_the_second_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = DickeModel(rng.uniform(0.5, 2.0), random_atom(rng, int(rng.integers(2, 5))),
                           kappa=rng.uniform(0.0, 0.5))
            assert curvature(m) == pytest.approx(second_difference(m), rel=1e-5, abs=1e-5)
        assert curvature(odd_cycle_model()) == pytest.approx(
            second_difference(odd_cycle_model()), rel=1e-5)

    def test_closed_form(self):
        # 2 omega_eff - 8 sum_n lam_0n^2 / eps_n; zero at the two-level lam_c
        assert curvature(two_level(1.0, 1.0, 0.5)) == 0.0
        assert curvature(two_level(1.0, 1.0, 0.7)) == 2.0 - 8.0 * 0.7**2
        assert curvature(ladder(1.0, 1.0, 2.0, 0.3, 1.5, kappa=0.1)) == 2.8 - 8.0 * 0.3**2

    def test_degenerate_ground_level(self):
        # level 1 has eps_0's energy: uncoupled it adds nothing ...
        lam = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
        m = DickeModel(1.0, AtomSpec([0.0, 0.0, 1.0], lam))
        assert curvature(m) == 2.0 - 8.0 * 0.3**2
        # ... coupled to level 2 it shifts down faster than level 0 does
        lam[1, 2] = lam[2, 1] = 1.0
        m = DickeModel(1.0, AtomSpec([0.0, 0.0, 1.0], lam))
        assert curvature(m) < 2.0 - 8.0 * 0.3**2 and curvature(m) < 0.0
        assert curvature(m) == pytest.approx(second_difference(m), rel=1e-5)
        # ... and coupled to level 0 it splits the pair linearly in x
        lam = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
        m = DickeModel(1.0, AtomSpec([0.0, 0.0, 1.0], lam))
        assert curvature(m) == -math.inf
        sol = minimize(m)
        assert sol.superradiant and [x for x, _ in sol.local_minima] == [sol.x_star]


class TestHellmannFeynman:
    # e* = min_x e(x) moves with a parameter p as de/dp at x* (the envelope
    # theorem), so de*/domega = x*^2, de*/dkappa = 4 x*^2 and de*/deps_j =
    # occupations[j]: an oracle without a reference solution.  Measured
    # within 8.9e-10 on these points.  LAPACK gives e* to a few ulps of the
    # single-atom matrix norm, up to about 4.5 here, and one such ulp over
    # the step 2h = 2e-6 is 4.4e-10
    TOL = 2e-9

    @pytest.mark.parametrize("model", [
        two_level(1.0, 1.0, 0.8),
        two_level(1.0, 1.0, 0.8, kappa=0.1),
        two_level(1.0, 1.0, 0.3, kappa=0.05),
        ladder(1.0, 1.0, 2.0, 0.1, 1.5),
        ladder(1.0, 1.0, 2.0, 0.1, 1.5, kappa=0.05),
        ladder(1.0, 1.0, 2.0, 0.0, 1.5),
        ladder(1.0, 1.0, 2.0, 0.05 * 1.4, 1.4, kappa=0.02),
        ladder(1.0, 1.0, 2.0, 0.3, 1.0, kappa=0.5),
    ], ids=["two_level", "two_level_kappa", "two_level_normal", "ladder", "ladder_kappa",
            "ladder_lam01_0", "tied_ladder", "ladder_normal"])
    def test_slopes_are_the_observables(self, model):
        sol = minimize(model)
        want = {"omega": sol.x_star**2, "kappa": 4.0 * sol.x_star**2,
                **{f"eps_{j}": sol.occupations[j] for j in range(1, model.atom.d)}}
        slopes = oracles.central_slopes(lambda m: minimize(m).e_star, model, h=1e-6)
        assert len(slopes) == model.atom.d + (model.kappa > 0.0)
        for name, slope in slopes.items():
            assert abs(slope - want[name]) <= self.TOL, (name, slope, want[name])


class TestOddCycle:
    def test_odd_cycle_matches_two_colouring(self):
        rng = np.random.default_rng(7)
        for d in range(2, 7):
            C = np.zeros((300, d, d))
            for b in range(300):
                for j in range(d):
                    for k in range(j + 1, d):
                        if rng.random() < 0.4:
                            C[b, j, k] = C[b, k, j] = rng.normal()
            odd = meanfield._odd_cycle(C)
            assert odd.tolist() == [not two_coloured(c != 0.0) for c in C]
            assert odd.any() == (d > 2) and not odd.all()

    def test_minimize_finds_the_negative_minimum(self):
        m = odd_cycle_model()
        sol = minimize(m)
        x_max = float(_x_max(np.array([m.omega_eff]), m.atom.energies, m.atom.couplings[None])[0])
        n = 200_001
        x_pos, _ = oracles.grid_minimum(m.atom.energies, m.atom.couplings, m.omega_eff, x_max, n)
        x_neg, e_neg = oracles.grid_minimum(m.atom.energies, -m.atom.couplings, m.omega_eff,
                                            x_max, n)
        assert x_pos == 0.0
        assert sol.superradiant and sol.x_star == pytest.approx(-0.169, abs=1e-3)
        assert abs(sol.x_star + x_neg) <= x_max / (n - 1)
        assert sol.e_star <= e_neg and sol.e_star == pytest.approx(-1.674e-4, rel=1e-3)
        assert sol.e_star == energy_density(m, sol.x_star)
        xs = [x for x, _ in sol.local_minima]
        assert xs == sorted(xs) and xs.count(0.0) == 1 and sol.x_star in xs

    def test_scan_and_no_go(self):
        m = odd_cycle_model()
        values = np.linspace(0.3, 0.5, 21)
        sols = scan_order_parameter(m, (0, 2), values)
        for value, sol in zip(values, sols):
            mv = m.with_couplings({(0, 2): value})
            x_max = float(_x_max(np.array([m.omega_eff]), m.atom.energies,
                                 mv.atom.couplings[None])[0])
            e_grid = min(oracles.grid_minimum(m.atom.energies, sign * mv.atom.couplings,
                                              m.omega_eff, x_max, 4001)[1] for sign in (1, -1))
            assert sol.e_star <= e_grid + 1e-15
            assert sol.e_star == energy_density(mv, sol.x_star)
            assert sol.superradiant == (sol.x_star < 0.0) == (value >= 0.4 - 1e-12)
        assert no_go_check(m, 0.41, which=(0, 2)) is False
        assert no_go_check(m, 0.39, which=(0, 2)) is True

    def test_critical_coupling(self):
        m = odd_cycle_model()
        bracket = (0.3, 0.45)
        tp = critical_coupling(m, (0, 2), bracket)
        _, lam_c, order = bisection_reference(m, (0, 2), bracket)
        eps = 0.5 * meanfield.REL_WIDTH * (bracket[1] - bracket[0])
        assert not minimize_at(m, (0, 2), tp.coupling_value - eps).superradiant
        assert minimize_at(m, (0, 2), tp.coupling_value + eps).x_star < 0.0
        assert abs(tp.coupling_value - lam_c) <= 1e-8 * (bracket[1] - bracket[0])
        assert tp.order == order == "first"

    def test_result_does_not_depend_on_the_batch(self):
        # set 1 has lam02 = 0, a 0-1-2 chain, which is bipartite
        m = odd_cycle_model()
        C, omega_eff = _scan_arrays(m, (0, 2), np.array([0.45, 0.0, 0.40, 0.3]), tie=None)
        assert meanfield._odd_cycle(C).tolist() == [True, False, True, True]
        batch = _solve_batch(omega_eff, m.atom.energies, C)
        assert [s.x_star < 0.0 for s in batch] == [True, False, True, False]
        for b in range(4):
            alone = _solve_batch(omega_eff[b:b + 1], m.atom.energies, C[b:b + 1])[0]
            assert _as_tuple(alone) == _as_tuple(batch[b])
        reordered = _solve_batch(omega_eff[::-1], m.atom.energies, C[::-1])[::-1]
        assert [_as_tuple(s) for s in reordered] == [_as_tuple(s) for s in batch]


class TestMerge:
    """The rule that joins the candidate minima of both halves of x."""

    @staticmethod
    def merge(sets, x, e, tol=1e-9, zero=None):
        """(local minima of each set, x* of each set) from synthetic
        candidates; x = 0 is a local minimum of the sets where zero is True,
        by default of every set."""
        B = max(sets) + 1
        zero = np.ones(B, dtype=bool) if zero is None else np.array(zero)
        s, xs, es, x_star = meanfield._merge(np.array(sets), np.array(x, dtype=float),
                                             np.array(e, dtype=float), np.full(B, tol), zero)
        minima = [[(float(a), float(c)) for t, a, c in zip(s, xs, es) if t == b] for b in range(B)]
        return minima, x_star.tolist()

    def test_close_candidates_are_one_minimum_with_the_lower_e(self):
        minima, x_star = self.merge([0, 0, 0, 0], [0.5 + 8e-10, 0.5, 0.5 + 2e-9, -0.3],
                                    [-0.2, -0.3, -0.1, -0.25])
        assert minima == [[(-0.3, -0.25), (0.0, 0.0), (0.5, -0.3), (0.5 + 2e-9, -0.1)]]
        assert x_star == [0.5]
        minima, _ = self.merge([0, 0], [0.5 + 8e-10, 0.5], [-0.3, -0.2])
        assert minima == [[(0.0, 0.0), (0.5 + 8e-10, -0.3)]]

    def test_an_e_tie_inside_a_minimum_keeps_the_smaller_abs_x(self):
        minima, _ = self.merge([0, 0, 0, 0], [0.5 + 8e-10, 0.5, -0.5, -0.5 - 8e-10],
                               [-0.3, -0.3, -0.2, -0.2])
        assert minima == [[(-0.5, -0.2), (0.0, 0.0), (0.5, -0.3)]]

    def test_near_zero_joins_the_single_zero_entry(self):
        tol = meanfield.X_TOL
        for x in (tol, -tol, 0.5 * tol, -0.5 * tol):
            minima, x_star = self.merge([0], [x], [-1e-13])
            assert minima == [[(0.0, -1e-13)]] and x_star == [0.0]
        minima, x_star = self.merge([0, 0], [0.5 * tol, -tol], [-1e-13, -2e-13])
        assert minima == [[(0.0, -2e-13)]] and x_star == [0.0]
        minima, _ = self.merge([0, 0], [1.5 * tol, -1.5 * tol], [-1e-13, -2e-13])
        assert minima == [[(-1.5 * tol, -2e-13), (0.0, 0.0), (1.5 * tol, -1e-13)]]

    def test_an_e_tie_between_the_halves_keeps_the_positive_x(self):
        # the x >= 0 half wins a tie, then the smaller |x|
        assert self.merge([0, 0], [-0.4, 0.4], [-0.1, -0.1])[1] == [0.4]
        assert self.merge([0, 0], [-0.3, 0.5], [-0.1, -0.1])[1] == [0.5]
        assert self.merge([0, 0], [-0.3, -0.2], [-0.1, -0.1])[1] == [-0.2]
        assert self.merge([0], [-0.3], [0.0])[1] == [0.0]

    def test_zero_is_a_candidate_only_where_it_is_a_minimum(self):
        minima, x_star = self.merge([0, 1, 1], [0.5, -0.3, 0.5], [-0.1, -0.2, -0.1],
                                    zero=[False, True])
        assert minima == [[(0.5, -0.1)], [(-0.3, -0.2), (0.0, 0.0), (0.5, -0.1)]]
        assert x_star == [0.5, -0.3]
        # a refined minimum within X_TOL of 0 is listed as x = 0 all the same
        minima, x_star = self.merge([0, 0], [0.5 * meanfield.X_TOL, 0.5], [1e-15, 0.1],
                                    zero=[False])
        assert minima == [[(0.0, 1e-15), (0.5, 0.1)]] and x_star == [0.0]

    def test_sets_do_not_merge_with_each_other(self):
        minima, x_star = self.merge([1, 0, 1], [0.5, 0.5, -0.2], [-0.1, -0.2, -0.3])
        assert minima == [[(0.0, 0.0), (0.5, -0.2)], [(-0.2, -0.3), (0.0, 0.0), (0.5, -0.1)]]
        assert x_star == [0.5, -0.2]
        minima, x_star = self.merge([2], [0.5], [-0.1])
        assert minima[:2] == [[(0.0, 0.0)], [(0.0, 0.0)]] and x_star == [0.0, 0.0, 0.5]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_result_does_not_depend_on_the_batch(self, seed):
        # set 0 has a 0-1-2 triangle (odd cycle), set 1 only lam_01 (bipartite)
        rng = np.random.default_rng(seed)
        d, B = int(rng.integers(3, 5)), int(rng.integers(2, 9))
        energies = np.sort(np.r_[0.0, rng.uniform(0.0, 2.0, d - 1)])
        if rng.random() < 0.3:
            energies[1] = 0.0
        C = np.triu(rng.normal(0.0, 0.7, (B, d, d)), 1) * (rng.random((B, d, d)) > 0.4)
        C[0, 0, 1], C[0, 0, 2], C[0, 1, 2] = rng.uniform(0.2, 1.0, 3) * rng.choice([-1, 1], 3)
        C[1] = 0.0
        C[1, 0, 1] = rng.uniform(0.2, 1.5)
        C = C + C.transpose(0, 2, 1)
        odd = meanfield._odd_cycle(C)
        assert odd[0] and not odd[1]
        omega_eff = rng.uniform(0.3, 2.0, B)
        batch = _solve_batch(omega_eff, energies, C)
        curvature = meanfield._curvature_at_zero(omega_eff, energies, C)
        for b in range(B):
            alone = _solve_batch(omega_eff[b:b + 1], energies, C[b:b + 1])[0]
            assert _as_tuple(alone) == _as_tuple(batch[b])
            xs = [x for x, _ in batch[b].local_minima]
            assert xs == sorted(xs) and xs.count(0.0) <= 1 and batch[b].x_star in xs
            # x = 0 is listed wherever e''(0) >= 0, and elsewhere only where
            # a refined minimum lies within X_TOL of it
            assert 0.0 in xs or curvature[b] < 0.0
            assert odd[b] or min(xs) >= 0.0
        perm = rng.permutation(B)
        shuffled = _solve_batch(omega_eff[perm], energies, C[perm])
        assert [_as_tuple(shuffled[i]) for i in np.argsort(perm)] == [_as_tuple(s) for s in batch]


class TestCriticalCoupling:
    def test_two_level_standard(self):
        tp = critical_coupling(two_level(1.0, 1.0, 0.1), (0, 1), (0.3, 0.8))
        assert tp.coupling_value == pytest.approx(0.5, abs=1e-6)
        assert tp.order == "second"
        assert tp.x_jump < 0.01

    def test_ladder_first_order(self):
        tp = critical_coupling(ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (1.0, 1.4))
        assert tp.coupling_value == pytest.approx(oracles.LADDER_LAMBDA_C, abs=1e-6)
        assert tp.order == "first"
        assert tp.x_jump == pytest.approx(oracles.LADDER_X_JUMP, abs=1e-3)
        assert tp.x_jump > 1.0
        assert 0.0 <= tp.pop_jump <= 1.0

    def test_degenerate_minima_at_first_order_point(self):
        m = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
        tp = critical_coupling(m, (1, 2), (1.0, 1.4))
        at_c = m.with_couplings({(1, 2): tp.coupling_value})
        sol = minimize(at_c)
        assert abs(energy_density(at_c, 0.0) - sol.e_star) <= 1e-8

    def test_tied_scan_stays_first_order(self):
        tp = critical_coupling(ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2),
                               (0.8, 1.6), tie={(0, 1): 0.05})
        assert tp.order == "first"
        assert tp.x_jump > 0.5

    def test_bracket_errors(self):
        m = two_level(1.0, 1.0, 0.1)
        with pytest.raises(BracketError, match="no transition"):
            critical_coupling(m, (0, 1), (0.6, 0.9))     # superradiant at lo
        with pytest.raises(BracketError, match="no transition"):
            critical_coupling(m, (0, 1), (0.1, 0.4))     # normal at hi
        with pytest.raises(ValueError, match="bracket"):
            critical_coupling(m, (0, 1), (0.5, 0.2))

    def test_scaling_covariance(self):
        # (omega, kappa, eps, lam) -> s * (...) rescales e by s, keeps x*
        base = ladder(1.0, 1.0, 2.0, 0.05, 1.0, kappa=0.02)
        tp0 = critical_coupling(base, (1, 2), (0.9, 1.6))
        sol0 = minimize(base.with_couplings({(1, 2): 1.5}))
        for s in (0.5, 2.0, 10.0):
            scaled = DickeModel(
                s * base.omega,
                AtomSpec(s * base.atom.energies, s * base.atom.couplings),
                kappa=s * base.kappa)
            sol = minimize(scaled.with_couplings({(1, 2): s * 1.5}))
            assert sol.x_star == pytest.approx(sol0.x_star, abs=1e-6)
            assert sol.e_star == pytest.approx(s * sol0.e_star, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(sol.occupations, sol0.occupations, atol=1e-7)
            tp = critical_coupling(scaled, (1, 2), (s * 0.9, s * 1.6))
            assert tp.coupling_value == pytest.approx(s * tp0.coupling_value, rel=1e-7)
            assert tp.order == tp0.order

    @pytest.mark.parametrize("kappa", [0.0, 0.05, 0.1, 0.3])
    def test_closed_forms(self, kappa):
        tp = critical_coupling(two_level(1.0, 1.0, 0.1, kappa=kappa), (0, 1), (0.1, 1.0))
        assert abs(tp.coupling_value - oracles.two_level_critical(1.0, 1.0, kappa)) <= 1e-12
        tp = critical_coupling(ladder(1.0, 1.0, 2.0, 0.0, 1.0, kappa=kappa), (1, 2), (0.5, 2.0))
        assert abs(tp.coupling_value - oracles.ladder_critical(1.0 + 4.0 * kappa)) <= 1e-9
        if kappa == 0.0:
            assert abs(tp.coupling_value - (1.0 + np.sqrt(2.0)) / 2.0) <= 1e-9

    # the benchmark's critical jobs: (model, pair, bracket, tie)
    BENCH_JOBS = [
        *[(ladder(1.0, 1.0, 2.0, 0.0, 1.0, kappa=kappa), (1, 2), (0.5, 2.0),
           {(0, 1): tie} if tie else None)
          for tie in (0.0, 0.05, 0.1, 0.2) for kappa in (0.0, 0.05, 0.1)],
        *[(two_level(1.0, 1.0, 1.0, kappa=kappa), (0, 1), (0.1, 1.0), None)
          for kappa in (0.0, 0.05, 0.1)],
    ]

    def test_benchmark_jobs_take_few_solves(self, monkeypatch):
        # plain bisection takes 2 + 27 + 2 solves on each
        seen = count_solves(monkeypatch)
        for model, which, bracket, tie in self.BENCH_JOBS:
            seen.clear()
            tp = critical_coupling(model, which, bracket, tie=tie)
            assert tp.solves == len(seen) <= 12

    def test_benchmark_jobs_take_two_calls(self, monkeypatch):
        # the Newton points of a first-order search are local solves, and one
        # call certifies the root with the jump pair: the ends, then root -/+
        # 0.4 tol and the pair; a second-order search checks the spinodal
        # root from below with the ends, and from above with the pair
        calls = count_calls(monkeypatch)
        for model, which, bracket, tie in self.BENCH_JOBS:
            calls.clear()
            tp = critical_coupling(model, which, bracket, tie=tie)
            assert calls == ([2, 4] if tp.order == "first" else [3, 3])
            assert tp.solves == sum(calls) == 6

    def test_independent_probes_share_a_batch(self, monkeypatch):
        # the two bracket ends are one _solve_batch call, and the points
        # across lam_c share one with the jump pair: every field is that of
        # one call per point
        solve_batch = meanfield._solve_batch

        def one_by_one(omega_eff, energies, couplings):
            return [solve_batch(omega_eff[b:b + 1], energies, couplings[b:b + 1])[0]
                    for b in range(len(couplings))]

        for model, which, bracket, tie in self.BENCH_JOBS:
            monkeypatch.setattr(meanfield, "_solve_batch", one_by_one)
            single = critical_coupling(model, which, bracket, tie=tie)
            calls = count_calls(monkeypatch)
            tp = critical_coupling(model, which, bracket, tie=tie)
            assert calls[0] >= 2 and calls[-1] >= 3
            assert tp.solves == sum(calls)
            assert tp == single
        for model, which, bracket, (n_calls, n_solves) in [
                (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0), (2, 6)),
                (two_level(1.0, 1.0, 1.0), (0, 1), (0.1, 1.0), (2, 6))]:
            calls.clear()
            assert critical_coupling(model, which, bracket).solves == n_solves
            assert len(calls) == n_calls

    @pytest.mark.parametrize("case", ["ladder", "tied_ladder", "odd_cycle"])
    def test_lost_branch_takes_full_solves(self, case, monkeypatch):
        # with every local solve failing, each Newton point is a full solve,
        # as before local tracking: the points are the Newton iterates of
        # e_sr from the upper end, then one solve just below the root, which
        # shares a call with the jump pair, and the bracket is certified
        model, which, bracket, tie = {
            "ladder": (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0), None),
            "tied_ladder": (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0), {(0, 1): 0.1}),
            "odd_cycle": (odd_cycle_model(), (0, 2), (0.3, 0.45), None),
        }[case]
        monkeypatch.setattr(meanfield, "_track", lambda *args: None)
        seen = count_solves(monkeypatch)
        calls = count_calls(monkeypatch)
        tp = critical_coupling(model, which, bracket, tie=tie)
        monkeypatch.undo()
        tol = meanfield.REL_WIDTH * (bracket[1] - bracket[0])
        lams, first = [c[which] for c in seen], calls[0]
        assert lams[:2] == list(bracket)
        # Newton starts from the lowest superradiant point of the first call
        newton = [certified_bracket(model, which, bracket, tie, lams[:first])[1]]
        while abs(newton_iterate(model, which, newton[-1], tie) - newton[-1]) >= 0.4 * tol:
            newton.append(newton_iterate(model, which, newton[-1], tie))
        root = newton_iterate(model, which, newton[-1], tie)
        assert lams[first:-3] == pytest.approx(newton[1:], rel=1e-14, abs=0.0)
        assert tp.coupling_value == pytest.approx(root, rel=1e-14, abs=0.0)
        assert lams[-3] == tp.coupling_value - 0.4 * tol
        assert calls == [first] + [1] * (len(newton) - 1) + [3]
        assert tp.solves == len(lams) == first + len(newton) + 2
        lo, hi = certified_bracket(model, which, bracket, tie, lams)
        assert hi - lo <= tol and lo <= tp.coupling_value <= hi

    @pytest.mark.parametrize("case", ["ladder", "tied_ladder", "two_level", "odd_cycle"])
    def test_rejecting_every_proposal_is_plain_bisection(self, case, monkeypatch):
        model, which, bracket, tie = {
            "ladder": (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0), None),
            "tied_ladder": (ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0), {(0, 1): 0.1}),
            "two_level": (two_level(1.0, 1.0, 1.0, kappa=0.05), (0, 1), (0.1, 1.0), None),
            "odd_cycle": (odd_cycle_model(), (0, 2), (0.3, 0.45), None),
        }[case]
        visited, lam_c, order = bisection_reference(model, which, bracket, tie)
        monkeypatch.setattr(meanfield, "_accept", lambda *args: False)
        seen = count_solves(monkeypatch)
        tp = critical_coupling(model, which, bracket, tie=tie)
        assert [c[which] for c in seen[:-2]] == visited
        assert tp.solves == len(visited) + 2
        assert (tp.coupling_value, tp.order) == (lam_c, order)

    def test_failed_straddle_hands_over_to_bisection(self, monkeypatch):
        # every Newton root 20 tol too high: the solves just across the
        # last one are both superradiant, and bisection of the bracket that
        # every full solve leaves finishes
        m, which, bracket = ladder(1.0, 1.0, 2.0, 0.0, 1.0), (1, 2), (0.5, 2.0)
        tol = meanfield.REL_WIDTH * (bracket[1] - bracket[0])
        newton_root = meanfield._newton_root

        def biased(*args):
            root = newton_root(*args)
            return None if root is None else root + 20.0 * tol

        monkeypatch.setattr(meanfield, "_newton_root", biased)
        seen = count_solves(monkeypatch)
        tp = critical_coupling(m, which, bracket)
        monkeypatch.undo()
        lo, hi = bracket
        midpoints = []
        for lam in (c[which] for c in seen[2:-2]):
            midpoints.append(lam == 0.5 * (lo + hi))
            if lo <= lam <= hi:
                if minimize_at(m, which, lam).superradiant:
                    hi = lam
                else:
                    lo = lam
        assert hi - lo <= tol and lo <= tp.coupling_value <= hi
        newton = midpoints.index(True)
        assert 1 <= newton <= 6 and all(midpoints[newton:])
        assert abs(tp.coupling_value - oracles.LADDER_LAMBDA_C) <= tol

    def test_certified_on_random_models(self):
        odd = []
        for model, which, bracket, tie in random_transitions(seed=11, n=16):
            tp = critical_coupling(model, which, bracket, tie=tie)
            width = bracket[1] - bracket[0]
            eps = 0.5 * meanfield.REL_WIDTH * width
            assert not minimize_at(model, which, tp.coupling_value - eps, tie).superradiant
            assert minimize_at(model, which, tp.coupling_value + eps, tie).superradiant
            _, lam_c, order = bisection_reference(model, which, bracket, tie)
            assert abs(tp.coupling_value - lam_c) <= 1e-8 * width and tp.order == order
            C, _ = _scan_arrays(model, which, np.array([1.0]), tie)
            odd.append(bool(meanfield._odd_cycle(C)[0]))
        assert 3 <= sum(odd) <= 13


class TestNoGo:
    def test_two_level_trk_rule_blocks_transition(self):
        m = two_level(1.0, 1.0, 0.1)
        assert no_go_check(m, 10.0, kappa_rule="trk-ground") is True

    def test_without_kappa_transition_exists(self):
        m = two_level(1.0, 1.0, 0.1)
        assert no_go_check(m, 10.0, kappa_rule="fixed") is False

    def test_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            omega = rng.uniform(0.3, 3.0)
            omega0 = rng.uniform(0.3, 3.0)
            m = two_level(omega, omega0, 0.1)
            lam_max = 10.0 * np.sqrt(omega * omega0)
            assert no_go_check(m, lam_max, kappa_rule="trk-ground") is True

    def test_ladder_survives_trk_saturated_kappa(self):
        # kappa fixed at lam01^2/eps1; the 1-2 transition still condenses
        m = ladder(1.0, 1.0, 2.0, 0.1, 1.0, kappa=0.1**2 / 1.0)
        assert no_go_check(m, 3.0, which=(1, 2), kappa_rule="fixed") is False

    # model, coupling, lambda_max, kappa_rule, scan blocks solved out of 4
    # (n_points 1000); both superradiant cases turn over inside the second
    # block, the fixed two-level one at lam = 0.5
    BLOCK_CASES = {
        "two_level_trk": (two_level(1.0, 1.0, 0.1), (0, 1), 10.0, "trk-ground", 4),
        "two_level_fixed_normal": (two_level(1.0, 1.0, 0.1, kappa=0.3), (0, 1), 0.7, "fixed", 4),
        "two_level_fixed": (two_level(1.0, 1.0, 0.1), (0, 1), 1.0, "fixed", 2),
        "ladder_trk": (ladder(1.0, 1.0, 2.0, 0.1, 1.0), (1, 2), 3.0, "trk-ground", 2),
    }

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_blocks_answer_like_one_batch(self, case, monkeypatch):
        model, which, lam_max, rule, n_blocks = self.BLOCK_CASES[case]
        sizes = []
        solve_batch = meanfield._solve_batch

        def spy(omega_eff, *args, **kwargs):
            sizes.append(omega_eff.size)
            return solve_batch(omega_eff, *args, **kwargs)

        monkeypatch.setattr(meanfield, "_solve_batch", spy)
        blocked = no_go_check(model, lam_max, n_points=1000, which=which, kappa_rule=rule)
        assert sizes == [256, 256, 256, 232][:n_blocks]
        monkeypatch.setattr(meanfield, "_NO_GO_BLOCK", 1000)
        assert no_go_check(model, lam_max, n_points=1000, which=which,
                           kappa_rule=rule) is blocked
        assert sizes[n_blocks:] == [1000]
        assert blocked is (n_blocks == 4)

    def test_overflow_raises_before_first_block(self):
        # x* > 0 from the second point on, and the scan range overflows only
        # past the first block, which alone would answer False
        m = two_level(1.0, 1.0, 0.1)
        C, omega_eff = _scan_arrays(m, (0, 1), np.linspace(0.0, 2e154, 1000), tie=None)
        block = slice(0, meanfield._NO_GO_BLOCK)
        _x_max(omega_eff[block], m.atom.energies, C[block])
        with pytest.raises(SolverError, match="parameter set"):
            no_go_check(m, 2e154, n_points=1000)

    def test_validation(self):
        m = two_level(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="lambda_max"):
            no_go_check(m, 0.0)
        with pytest.raises(ValueError, match="n_points"):
            no_go_check(m, 1.0, n_points=50)
        with pytest.raises(ValueError, match="n_points"):
            no_go_check(m, 1.0, n_points=meanfield.N_POINTS_MAX + 1)
        atom = AtomSpec([0.0, 0.0, 1.0], np.zeros((3, 3)))
        with pytest.raises(ValueError, match="degenerate ground transition"):
            no_go_check(DickeModel(1.0, atom), 1.0, kappa_rule="trk-ground")


def test_scan_csv_columns(tmp_path):
    m = ladder(1.0, 1.0, 2.0, 0.0, 1.0)
    vals = [1.1, 1.3]
    sols = scan_order_parameter(m, (1, 2), vals)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, vals, sols)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "coupling,x_star,e_star,pop_0,pop_1,pop_2,n_local_minima"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.1
    assert float(first[1]) == sols[0].x_star
