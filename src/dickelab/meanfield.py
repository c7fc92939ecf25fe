"""Thermodynamic-limit (mean-field) solver for the multilevel Dicke family.

With a coherent photon state <a> = sqrt(N) x (x real) and all atoms in the
same single-atom state, the energy per atom is

    e(x) = (omega + 4 kappa) x^2 + min_spec[ diag(eps) + 2 x lam ]

The global minimum over x decides the phase: x* = 0 is normal, x* != 0 is
superradiant.  The sign of x is a gauge choice only when the coupling graph
(levels joined by nonzero lam_jk) is bipartite: then a diagonal signature S
has S lam S = -lam, so e(-x) = e(x).  With an odd cycle e(-x; lam) =
e(x; -lam) differs from e(x; lam), and x* may be negative.  Minimization
runs on a uniform grid over x >= 0 (every grid-resolved local minimum is
refined by a safeguarded Newton iteration on e'(x)), once more with -lam
for a non-bipartite atom, which is what makes first-order transitions with
competing minima safe to classify.  One array pass (_merge) then joins the
refined minima of every set from both halves of x, the -lam ones at -x, and
x = 0 where e''(0) >= 0 (_curvature_at_zero).  A batch of parameter sets
walks the grid a fixed number of grid points at a time, so the grid
stage's memory does not grow with the batch size.  Past L / omega_eff, L
the largest absolute row sum of lam, e rises strictly and holds no
minimum, so that part of the grid, 60% of it or more, is never evaluated
(_grid_brackets).  The grid values only place the brackets; for d <= 3
they come from a closed form for the lowest eigenvalue (_grid_lowest), and
every number a solution reports comes from LAPACK.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .errors import BracketError, SolverError
from .model import DickeModel, coupling_pair, single_atom_matrices, trk_kappa_min

GRID_POINTS = 512           # uniform grid on [0, x_max] that brackets every local minimum
X_TOL = 1e-6                # a refined |x*| at or below this is the normal phase, x* = 0
JUMP_THRESHOLD = 0.05       # a jump in x* above this across lam_c is first order
REL_WIDTH = 1e-8            # the certified bracket (Newton, bisection fallback) stops at
                            # this fraction of the initial bracket width
DELTA_REL = 1e-4            # the jump is measured at lam_c (1 +/- DELTA_REL)
DEFAULT_N_POINTS = 200
N_POINTS_MIN = 100          # no-go scan points, at least
N_POINTS_MAX = 100_000      # and at most; the batch arrays are O(n_points d^2)

_GRID_CHUNK = 1 << 14   # grid points (single-atom matrices) per _grid_lowest call
_GRID_MARGIN = 2        # grid points evaluated past ceil(511 L / (omega_eff x_max)):
                        # one for rounding, one for the last candidate's neighbour
_NO_GO_BLOCK = 256      # no-go scan points solved before looking for x* != 0
_NEWTON_MAX = 64        # refinement steps per bracket before SolverError
_TRACK_STEPS = 2.0 ** np.arange(10)    # grid cells from x0 that _track tests, 1 to 512
_GRID = np.linspace(0.0, 1.0, GRID_POINTS)
_TRACK_STEPS.flags.writeable = _GRID.flags.writeable = False


@dataclass(frozen=True)
class MeanFieldSolution:
    """Global minimum of e(x) plus every grid-resolved local minimum.

    local_minima lists (x, e) by ascending x, only x >= 0 for a bipartite
    atom.  It lists x = 0 where e''(0) >= 0 (_curvature_at_zero), and where
    a refined minimum lies within X_TOL of it; so at a plain superradiant
    point (two-level lam 0.7: ((0.602..., -0.1176...),)) it counts 1, and
    where a metastable x = 0 competes with a superradiant branch, 2.
    """

    x_star: float
    e_star: float
    occupations: np.ndarray
    local_minima: tuple[tuple[float, float], ...]

    @property
    def superradiant(self) -> bool:
        return abs(self.x_star) > X_TOL

    @property
    def n_local_minima(self) -> int:
        return len(self.local_minima)


@dataclass(frozen=True)
class TransitionPoint:
    """Critical coupling located in a certified bracket (Newton, bisection
    fallback), classified by the jump in x*.

    x_jump and pop_jump are evaluated at coupling_value*(1 +/- delta_rel).
    solves counts the full mean-field solves the search made, the two jump
    solves included, and not the local solves of its Newton points; it is
    deterministic.
    """

    coupling_value: float
    order: Literal["first", "second"]
    x_jump: float
    pop_jump: float
    solves: int
    delta_rel: float = DELTA_REL


def _energies(omega_eff, energies: np.ndarray, couplings: np.ndarray, xs: np.ndarray):
    """e(x) = omega_eff x^2 + min_spec[diag(eps) + 2 x lam], broadcast over xs."""
    mats = single_atom_matrices(energies, couplings, xs)
    return omega_eff * xs**2 + np.linalg.eigvalsh(mats)[..., 0]


def energy_density(model: DickeModel, x) -> np.ndarray | float:
    """e(x) per atom; x may be a scalar or an array."""
    xs = np.asarray(x, dtype=float)
    out = _energies(model.omega_eff, model.atom.energies, model.atom.couplings, xs)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def _row_sum(couplings: np.ndarray) -> np.ndarray:
    """L, the largest absolute row sum of each (d, d) coupling matrix, which
    bounds its spectral radius."""
    return np.abs(couplings).sum(axis=2).max(axis=1)


def _x_max(omega_eff: np.ndarray, energies: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Conservative scan bound: beyond it e(x) > e(0) = 0 is guaranteed.

    Gershgorin gives min_spec >= -2 x L with L the largest absolute row sum
    of the coupling matrix, so e(x) > 0 once omega_eff x^2 > eps_max + 2 L x.
    The positive root of that quadratic (padded) bounds all global minima.
    Since eps_max >= 0, the root is at least 2 L / omega_eff, so x_max >=
    2.5 L / omega_eff; past L / omega_eff e rises (_grid_brackets), and
    that part of the grid is never evaluated.
    Finite but extreme inputs can overflow the bound or the terms
    omega_eff x^2 and 2 x L of e(x) on [0, x_max]; that raises SolverError
    naming the first such parameter set, before any eigensolve.
    """
    L = _row_sum(couplings)
    eps_max = float(energies.max())
    with np.errstate(over="ignore", invalid="ignore"):
        root = (L + np.sqrt(L**2 + omega_eff * eps_max)) / omega_eff
        x_hi = np.maximum(1.25 * root, 1.0)
        finite = np.isfinite([x_hi, omega_eff * x_hi**2, 2.0 * x_hi * L]).all(axis=0)
    if not finite.all():
        b = int(np.argmin(finite))
        raise SolverError(
            f"mean-field scan range overflows for parameter set {b}: x_max = {x_hi[b]:g} "
            f"(omega_eff = {omega_eff[b]:g}, largest coupling row sum = {L[b]:g})")
    return x_hi


def _hellmann_feynman(omega_eff, energies: np.ndarray, couplings: np.ndarray, x: np.ndarray):
    """(w, g, e'(x)) at each x: the eigenvalues w of diag(eps) + 2 x lam, g_n =
    c_n^T lam c_0, and e' = 2 omega_eff x + 2 g_0 by Hellmann-Feynman."""
    w, v = np.linalg.eigh(single_atom_matrices(energies, couplings, x))
    g = (v * (couplings @ v[..., :1])).sum(axis=-2)
    return w, g, 2.0 * omega_eff * x + 2.0 * g[..., 0]


def _refine(omega_eff: np.ndarray, energies: np.ndarray, couplings: np.ndarray,
            owners: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Newton on e'(x) from each bracket's midpoint; lo and hi shrink in place.

    Bracket i belongs to parameter set owners[i], and each step is one eigh
    call on all open brackets.  By Hellmann-Feynman, with g_n = c_n^T lam c_0,
    e' = 2 omega_eff x + 2 g_0 and e'' = 2 omega_eff - 8 sum_{n>=1} g_n^2 /
    (E_n - E_0).  The sign of e' shrinks the bracket.  The Newton point,
    clipped into the closed bracket, is taken if e'' > 0 (not nan, as at a
    degenerate ground level) and the step at least halves; else x moves to
    the bracket midpoint.  A bracket is frozen once its step is at most its
    owner's tol.
    """
    x = 0.5 * (lo + hi)
    prev, todo = np.full(x.size, np.inf), np.arange(x.size)
    for _ in range(_NEWTON_MAX):
        b, xa = owners[todo], x[todo]
        w, g, d1 = _hellmann_feynman(omega_eff[b], energies, couplings[b], xa)
        lo[todo] = la = np.where(d1 < 0.0, xa, lo[todo])
        hi[todo] = ha = np.where(d1 > 0.0, xa, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = 2.0 * omega_eff[b] - 8.0 * (g[:, 1:] ** 2 / (w[:, 1:] - w[:, :1])).sum(axis=1)
            newton = np.minimum(np.maximum(xa - d1 / d2, la), ha)
        newton_ok = (d2 > 0.0) & (np.abs(newton - xa) <= 0.5 * prev[todo])
        step = np.where(newton_ok, newton, 0.5 * (la + ha)) - xa
        x[todo], prev[todo] = xa + step, np.abs(step)
        todo = todo[prev[todo] > tol[b]]
        if todo.size == 0:
            return x
    raise SolverError(f"Newton cap of {_NEWTON_MAX} steps hit for parameter set {owners[todo[0]]}")


def _odd_cycle(couplings: np.ndarray) -> np.ndarray:
    """For each (d, d) coupling matrix, whether its graph has an odd cycle.

    A graph is bipartite iff it has no closed walk of odd length, and its
    shortest odd cycle has at most d vertices, so the traces of the odd
    powers 3, 5, ... <= d of the adjacency matrix decide it.
    """
    adj = couplings != 0.0      # boolean powers: walks exist or not, no overflow
    power, odd = adj, np.zeros(adj.shape[0], dtype=bool)
    for _ in range(3, adj.shape[-1] + 1, 2):
        power = adj @ adj @ power
        odd |= np.diagonal(power, axis1=1, axis2=2).any(axis=1)
    return odd


def _grid_lowest(energies: np.ndarray, couplings: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """min_spec[diag(eps) + 2 x lam] for couplings (rows, d, d) and xs (rows, n).

    d = 2 is the exact form (eps_0 + eps_1)/2 - hypot((eps_1 - eps_0)/2,
    2 x lam_01).  d = 3 is the trigonometric (Smith) form on C = (A - q 1) / s,
    q = tr A / 3 and s the largest entry magnitude of A - q 1, so no power
    of an entry under- or overflows at any finite scale of the model.  It
    is accurate to a few ulps of s except near a degenerate lowest pair,
    where a gap g costs about s^2 eps / g.  d >= 4 calls eigvalsh.  For
    d <= 3 no stack of (rows, n, d, d) matrices is built.
    """
    d = energies.size
    if d > 3:
        return np.linalg.eigvalsh(single_atom_matrices(energies, couplings[:, None], xs))[..., 0]
    lmax = np.abs(couplings).max(axis=(1, 2))
    z = 2.0 * xs * lmax[:, None]    # the largest |2 x lam_jk|, up to sign
    if d == 2:
        half_gap = 0.5 * (energies[1] - energies[0])
        return (0.5 * energies[0] + 0.5 * energies[1]) - np.hypot(half_gap, z)
    # C = t diag(alpha) + y beta, with alpha = (eps - q) / max|eps - q| and
    # beta = lam / max|lam| fixed per row, and |t|, |y| <= 1 varying with x
    q = (energies / 3.0).sum()      # lam has a zero diagonal
    dmax = np.abs(energies - q).max()
    alpha = (energies - q) / dmax if dmax > 0.0 else np.zeros(3)
    beta = couplings / np.where(lmax > 0.0, lmax, 1.0)[:, None, None]
    b01, b02, b12 = (beta[:, j, k, None] for j, k in ((0, 1), (0, 2), (1, 2)))
    s = np.maximum(dmax, np.abs(z))
    s = np.where(s > 0.0, s, 1.0)   # A = q 1, so t = y = 0
    t, y = dmax / s, z / s
    t2, y2 = t * t, y * y
    p2 = (alpha @ alpha / 6.0) * t2 + ((b01**2 + b02**2 + b12**2) / 3.0) * y2     # tr C^2 / 6
    det = (t * (alpha.prod() * t2 - (alpha[0] * b12**2 + alpha[1] * b02**2 + alpha[2] * b01**2) * y2)
           + (2.0 * b01 * b02 * b12) * (y * y2))
    p = np.sqrt(p2)
    r = np.divide(det, 2.0 * p2 * p, out=np.zeros_like(det), where=p > 0.0)
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3.0
    return q + (2.0 * s * p) * np.cos(phi + 2.0 * np.pi / 3.0)


def _grid_brackets(omega_eff: np.ndarray, energies: np.ndarray, couplings: np.ndarray,
                   x_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every grid-resolved local minimum of e on [0, x_hi], boundaries
    included, as (owners, k): parameter set owners[i] (ascending) has one
    at its grid point k[i], x_hi * linspace(0, 1, GRID_POINTS)[k[i]].

    The grid values come from _grid_lowest, and only decide where the
    minima are.  The stage streams over the parameter sets, _GRID_CHUNK //
    GRID_POINTS rows at a time, so its memory is bounded by the chunk and
    not by B.

    The grid past L / omega_eff is not evaluated, L being the largest
    absolute row sum of lam (_row_sum, as in _x_max).  The lowest
    eigenvalue's one-sided slopes 2 c^T lam c are at most 2 rho(lam) <= 2 L
    in size, so e'(x) >= 2 omega_eff x - 2 L > 0 for x > L / omega_eff: from
    a grid point x_{k-1} >= L / omega_eff to x_k, e rises by at least
    omega_eff h^2, h = x_hi / (GRID_POINTS - 1), about 4e-6 omega_eff
    x_hi^2, orders of magnitude above the grid kernel's error
    (TestGridKernel).  So neither such a point k nor the x_hi end is a grid
    minimum, and a chunk evaluates the grid up to the index n - 1 = max over
    its rows of ceil((GRID_POINTS - 1) L / omega_eff / x_hi) + _GRID_MARGIN,
    capped at the last point; the margin covers the rounding of that index
    and of the grid points and the neighbour that the last candidate's test
    reads.  The x_hi end is tested only when the chunk reaches it.  _x_max
    keeps L / omega_eff <= 0.4 x_hi, so that quotient cannot overflow and
    60% or more of the grid is skipped; every bracket is the one the full
    grid gives.
    """
    rows = _GRID_CHUNK // GRID_POINTS
    L = _row_sum(couplings)
    last = np.minimum(np.ceil((GRID_POINTS - 1) * (L / omega_eff / x_hi)) + _GRID_MARGIN,
                      GRID_POINTS - 1)
    owners, ks = [], []
    for start in range(0, couplings.shape[0], rows):
        chunk = slice(start, start + rows)
        n = int(last[chunk].max()) + 1
        xs = x_hi[chunk, None] * _GRID[None, :n]
        e = omega_eff[chunk, None] * xs**2 + _grid_lowest(energies, couplings[chunk], xs)
        # the mask's columns are the interior points, then the two ends
        is_min = np.concatenate([(e[:, 1:-1] <= e[:, :-2]) & (e[:, 1:-1] <= e[:, 2:]),
                                 e[:, :1] <= e[:, 1:2],
                                 (e[:, -1:] <= e[:, -2:-1]) & (n == GRID_POINTS)], axis=1)
        r, c = np.nonzero(is_min)
        owners.append(start + r)
        ks.append(np.r_[1:n - 1, 0, n - 1][c])
    return np.concatenate(owners), np.concatenate(ks)


def _lowest(seg: np.ndarray, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Index of the lowest e in each segment (seg ascending), in segment
    order; a tie takes x >= 0, then the smaller |x|."""
    order = np.lexsort((np.abs(x), x < 0.0, e, seg))
    seg = seg[order]
    first = np.ones(seg.size, dtype=bool)
    first[1:] = seg[1:] != seg[:-1]
    return order[first]


def _curvature_at_zero(omega_eff: np.ndarray, energies: np.ndarray,
                       couplings: np.ndarray) -> np.ndarray:
    """e''(0) of each parameter set, from second-order perturbation theory in x.

    With a nondegenerate ground level it is 2 omega_eff - 8 sum_{n>=1}
    lam_0n^2 / eps_n.  Where G, the levels with eps_n = eps_0 = 0, holds
    more than level 0, the sum becomes the largest eigenvalue of
    M = sum_{n not in G} lam_Gn lam_Gn' / eps_n, the second-order shift of
    the lowest level of G; a level of G without couplings adds nothing, and
    a coupling inside G splits G linearly in x, a cusp: e''(0) = -inf.  An
    overflowing term gives -inf too.  O(B d) for a nondegenerate ground level.
    """
    g = int(np.count_nonzero(energies == energies[0]))
    lam = couplings[:, :g, g:]
    with np.errstate(over="ignore", invalid="ignore"):
        if g == 1:
            top = (lam[:, 0] ** 2 / energies[1:]).sum(axis=1)
        else:
            M = np.einsum("bin,bjn->bij", lam / energies[g:], lam)
            finite = np.isfinite(M).all(axis=(1, 2))
            top = np.full(M.shape[0], np.inf)
            top[finite] = np.linalg.eigvalsh(M[finite])[:, -1]
            top[(couplings[:, :g, :g] != 0.0).any(axis=(1, 2))] = np.inf
    return 2.0 * omega_eff - 8.0 * top


def _merge(sets: np.ndarray, x: np.ndarray, e: np.ndarray, tol: np.ndarray,
           zero: np.ndarray):
    """Local minima of tol.size parameter sets from candidates (sets, x, e).

    A set with zero[set] True (x = 0 a local minimum) also has the
    candidate (0, 0), e(0) = eps_0 = 0 exactly, and |x| <= X_TOL counts as
    0.  Sorted by (set, x), neighbours at most tol[set] apart are one
    minimum, which takes its lowest candidate (see _lowest).  Returns the
    minima (s, x, e) sorted by (set, x) and each set's x*, the x of its
    lowest minimum; every set must have a minimum.
    """
    at_zero = np.flatnonzero(zero)
    s = np.concatenate([at_zero, sets])
    x = np.concatenate([np.zeros(at_zero.size), x])
    x[np.abs(x) <= X_TOL] = 0.0
    e = np.concatenate([np.zeros(at_zero.size), e])
    order = np.lexsort((x, s))
    s, x, e = s[order], x[order], e[order]
    new = np.ones(s.size, dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (x[1:] - x[:-1] > tol[s[1:]])
    keep = _lowest(np.cumsum(new), x, e)
    s, x, e = s[keep], x[keep], e[keep]
    return s, x, e, x[_lowest(s, x, e)]


def _solve_batch(omega_eff: np.ndarray, energies: np.ndarray, couplings: np.ndarray
                 ) -> list[MeanFieldSolution]:
    """Minimize e(x) over all real x for B parameter sets.

    A set whose coupling graph is bipartite has e(-x) = e(x) and is solved
    on x >= 0 alone.  A set with an odd cycle is also solved on x >= 0 as
    -lam, since e(-x; lam) = e(x; -lam): the mirrored copy of set mirror[i]
    is row B + i of the batch, and a SolverError names it so.

    _grid_brackets places a bracket around every grid-resolved local
    minimum.  Every number that leaves here comes from LAPACK: e at each
    chosen grid point is _energies there, _refine runs on every bracket of
    the batch at once, and a bracket whose refinement ends above its grid
    point keeps it.  One _merge joins the candidates of both halves of x, a
    mirrored row's at -x, within 1e-9 max(1, x_max) of each other, and
    x = 0 where it is a local minimum (_curvature_at_zero).  e* is
    _energies at x*, the formula energy_density uses, and one batched eigh
    gives each x*'s occupations.  LAPACK solves each matrix on its own and
    _refine freezes each bracket at its owner's tolerance, so neither the
    chunk size nor the other sets of the batch change any set's result.
    """
    B = couplings.shape[0]
    mirror = np.flatnonzero(_odd_cycle(couplings))
    sets = np.concatenate([np.arange(B), mirror])   # the parameter set of each row
    om, lam = omega_eff[sets], np.concatenate([couplings, -couplings[mirror]])
    x_hi = _x_max(om, energies, lam)
    owners, k = _grid_brackets(om, energies, lam, x_hi)
    # the grid point and its two neighbours, as the products _grid_brackets forms
    lo, x_grid, hi = (x_hi[owners] * _GRID[np.minimum(np.maximum(k + s, 0), GRID_POINTS - 1)]
                      for s in (-1, 0, 1))
    x_ref = _refine(om, energies, lam, owners, lo, hi, 1e-12 * np.maximum(1.0, x_hi))
    e_grid, e_ref = _energies(om[owners], energies, lam[owners], np.stack([x_grid, x_ref]))
    x_ref, e_ref = np.where(e_ref > e_grid, [x_grid, e_grid], [x_ref, e_ref])

    s, x, e, x_star = _merge(sets[owners], np.where(owners < B, x_ref, -x_ref), e_ref,
                             1e-9 * np.maximum(1.0, x_hi[:B]),
                             _curvature_at_zero(omega_eff, energies, couplings) >= 0.0)
    e_star = _energies(omega_eff, energies, couplings, x_star)
    occ = np.linalg.eigh(single_atom_matrices(energies, couplings, x_star))[1][:, :, 0] ** 2
    occ.flags.writeable = False
    bounds = np.searchsorted(s, np.arange(B + 1))
    minima = list(zip(x.tolist(), e.tolist()))
    return [MeanFieldSolution(float(x_star[b]), float(e_star[b]), occ[b],
                              tuple(minima[bounds[b]:bounds[b + 1]]))
            for b in range(B)]


def minimize(model: DickeModel) -> MeanFieldSolution:
    """Global minimum of e(x) over real x (x* < 0 only for a non-bipartite atom).

    Any refined |x*| at or below X_TOL is snapped to exactly 0, so
    x_star == 0 is equivalent to the normal phase.
    """
    return _solve_batch(
        np.array([model.omega_eff]),
        model.atom.energies,
        model.atom.couplings[None],
    )[0]


# The rules on the arguments of the scans below, one function each; the CLI
# calls them on a config's fields.

def tie_pair(pair, scanned: tuple[int, int], d: int) -> tuple[int, int]:
    """coupling_pair(pair, d), unless it is scanned (as coupling_pair gives it)."""
    tied = coupling_pair(pair, d)
    if tied == scanned:
        raise ValueError(f"tie {pair}: cannot tie the scanned coupling to itself")
    return tied


def check_scan_values(values: Sequence[float]) -> None:
    if len(values) < 2 or np.any(np.diff(values) <= 0):
        raise ValueError("values must be strictly ascending with at least 2 entries")


def check_bracket(bracket: Sequence[float]) -> None:
    if len(bracket) != 2 or not 0.0 <= bracket[0] < bracket[1]:
        raise ValueError("bracket must be [lo, hi] with 0 <= lo < hi")


def check_lambda_max(lambda_max: float) -> None:
    if not lambda_max > 0:
        raise ValueError("lambda_max must be positive")


def check_n_points(n_points: int) -> None:
    if not N_POINTS_MIN <= n_points <= N_POINTS_MAX:
        raise ValueError(f"n_points must be at least {N_POINTS_MIN} and at most {N_POINTS_MAX}")


def check_kappa_rule(kappa_rule: str) -> None:
    if kappa_rule not in ("fixed", "trk-ground"):
        raise ValueError(f"unknown kappa_rule {kappa_rule!r}, expected 'fixed' or 'trk-ground'")


def _scan_arrays(model: DickeModel, which: tuple[int, int], values: np.ndarray,
                 tie: Mapping[tuple[int, int], float] | None):
    """Coupling matrices and omega_eff for each scanned value.

    This is the one place a tie is applied: each tied pair (tie_pair) is set
    to ratio * value.
    """
    j, k = coupling_pair(which, model.atom.d)
    C = np.repeat(model.atom.couplings[None], values.size, axis=0)
    C[:, j, k] = C[:, k, j] = values
    for pair, ratio in (tie or {}).items():
        tj, tk = tie_pair(pair, (j, k), model.atom.d)
        C[:, tj, tk] = C[:, tk, tj] = ratio * values
    return C, np.full(values.size, model.omega_eff)


def scan_order_parameter(model: DickeModel, which: tuple[int, int],
                         values: Sequence[float],
                         tie: Mapping[tuple[int, int], float] | None = None
                         ) -> list[MeanFieldSolution]:
    """Solve the mean-field problem at each coupling value (ascending, >= 2).

    tie maps other coupling pairs to a ratio of the scanned value, so
    e.g. tie={(0, 1): 0.05} co-scales lam_01 = 0.05 * lam_12.
    """
    vals = np.asarray(values, dtype=float)
    check_scan_values(vals)
    C, omega_eff = _scan_arrays(model, which, vals, tie)
    return _solve_batch(omega_eff, model.atom.energies, C)


def _spinodal(omega_eff: float, energies: np.ndarray, C0: np.ndarray, D: np.ndarray,
              lo: float, hi: float) -> float | None:
    """Smallest lam in (lo, hi) where x = 0 stops being a local minimum, or None.

    Second-order perturbation theory in x gives e''(0) = 2 omega_eff -
    8 sum_{n>=1} C_0n^2 / eps_n, and C = C0 + lam D makes it a quadratic
    a lam^2 + b lam + c in lam.  Its roots come from the closed form that
    avoids cancellation.  eps_1 = 0 (a degenerate ground level) gives None.
    """
    if not energies[1] > 0.0:
        return None
    p, q, w = C0[0, 1:], D[0, 1:], 8.0 / energies[1:]
    a, b, c = -(w * q * q).sum(), -2.0 * (w * p * q).sum(), 2.0 * omega_eff - (w * p * p).sum()
    disc = b * b - 4.0 * a * c
    if a == 0.0:
        roots = [-c / b] if b != 0.0 else []
    elif disc < 0.0:
        roots = []
    else:
        s = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        roots = [s / a, c / s] if s != 0.0 else [0.0]
    return min((float(r) for r in roots if lo < r < hi), default=None)


def _sr_branch(sol: MeanFieldSolution) -> tuple[float, float] | None:
    """(x, e) of the lowest local minimum of sol at x != 0, or None."""
    return min((m for m in sol.local_minima if m[0] != 0.0), key=lambda m: m[1], default=None)


def _track(omega_eff: float, energies: np.ndarray, couplings: np.ndarray,
           x0: float) -> float | None:
    """The local minimum of e at x > X_TOL nearest to x0 > 0, or None.

    One eigh call takes e' at x0 and at the points _TRACK_STEPS grid cells
    of [0, x_max] (_x_max) to each side of it, cut to (0, x_max]; on the
    left, a point x0 2^-k-close to 0 stands in for one past 0, since e' = 0
    there at a nondegenerate ground level.  The neighbours with e' < 0 on
    the left and e' > 0 on the right that lie nearest to x0 bracket the
    minimum, which _refine finds to the tolerance _solve_batch uses.  None
    without such a pair, or where the minimum is within X_TOL of 0.
    """
    om, lam = np.array([omega_eff]), couplings[None]
    x_hi = float(_x_max(om, energies, lam)[0])
    steps = _TRACK_STEPS * (x_hi / (GRID_POINTS - 1))
    left = np.maximum(x0 - steps, x0 * 0.5 ** np.arange(1, steps.size + 1))
    xs = np.concatenate([left[::-1], [x0], np.minimum(x0 + steps, x_hi)])
    d1 = _hellmann_feynman(omega_eff, energies, couplings, xs)[2]
    down = np.flatnonzero((d1[:-1] < 0.0) & (d1[1:] > 0.0))
    if down.size == 0:
        return None
    i = down[np.argmin(np.maximum(xs[down] - x0, 0.0) + np.maximum(x0 - xs[down + 1], 0.0))]
    x = float(_refine(om, energies, lam, np.zeros(1, dtype=int), xs[i:i + 1].copy(),
                      xs[i + 1:i + 2].copy(), np.array([1e-12 * max(1.0, x_hi)]))[0])
    return x if x > X_TOL else None


def _newton_root(energies: np.ndarray, C0: np.ndarray, D: np.ndarray, lam: float,
                 branch: tuple[float, float] | None) -> float | None:
    """Newton step lam - e_sr / e_sr' from branch = (x, e_sr), a local
    minimum of e at x != 0 and coupling lam.

    By the envelope theorem de_sr/dlam = 2 x c_0^T D c_0, with c_0 the
    lowest eigenvector at x.  None without a branch, or where its energy
    does not fall with lam.
    """
    if branch is None:
        return None
    x, e = branch
    c = np.linalg.eigh(single_atom_matrices(energies, C0 + lam * D, x))[1][:, 0]
    slope = 2.0 * x * float(c @ D @ c)
    return lam - e / slope if slope < 0.0 else None


def _accept(proposal: float | None, lam: float, step: float, lo: float, hi: float) -> bool:
    """rtsafe's rule: a proposal strictly inside (lo, hi) whose step from the
    last point lam at most halves the previous step."""
    return proposal is not None and lo < proposal < hi and abs(proposal - lam) <= 0.5 * step


def critical_coupling(model: DickeModel, which: tuple[int, int],
                      bracket: tuple[float, float],
                      tie: Mapping[tuple[int, int], float] | None = None
                      ) -> TransitionPoint:
    """Locate the normal/superradiant switch of |x*(lam)| > X_TOL in a
    certified bracket (Newton, bisection fallback).

    The bracket must straddle the transition: normal at bracket[0],
    superradiant at bracket[1].  Only full mean-field solves (_solve_batch)
    move it: each one at a point in the bracket moves the end on its side
    there, and the search stops once the bracket is at most tol =
    REL_WIDTH times the initial width.  Each point is built by _scan_arrays,
    as in scan_order_parameter and no_go_check, so a pair or tie is checked
    and applied the same way; C(lam) = C0 + lam D is affine.

    The root comes from one of two proposals, each taken only when _accept
    allows it, else the bracket is bisected by a full solve at its midpoint:
    - second order: _spinodal's root lam2 of e''(0), checked by a full
      solve at lam2 - 0.4 tol in the call that solves the bracket ends;
    - first order: Newton on e_sr(lam), the lowest local minimum at x != 0
      (_newton_root), from the lowest superradiant full solve.  A Newton
      point gets a local solve: _track follows the branch from its last x,
      and only where it finds none is the point solved in full.  e_sr is
      concave, so Newton from the superradiant side moves monotonically to
      lam_c; a step below 0.4 tol ends it.
    One _solve_batch call then certifies the root: full solves at root -/+
    0.4 tol, each one unless a bracket end is already that close, together
    with the jump pair lam_c (1 -/+ DELTA_REL) at lam_c = root.  If they do
    not straddle the root, bisection alone finishes from the bracket that
    every full solve so far leaves.  With every proposal refused the search
    is plain bisection.  coupling_value is the root if it lies in the final
    bracket, else the bracket midpoint, and the jump pair is solved again
    only in the latter case.  The order is classified from the jump of x*
    across lam_c +/- DELTA_REL*lam_c (first order above JUMP_THRESHOLD).

    The normal end is checked first.  solves counts the full solves, not
    the calls or the local solves, and by _solve_batch's batch invariance
    each point's solution is the one a call of its own gives.
    """
    check_bracket(bracket)
    lo, hi = float(bracket[0]), float(bracket[1])
    energies, omega_eff = model.atom.energies, model.omega_eff
    C0, C1 = (_scan_arrays(model, which, np.array([v]), tie)[0][0] for v in (0.0, 1.0))
    D = C1 - C0
    tol = REL_WIDTH * (hi - lo)
    solves, at_hi, jump = 0, None, {}

    def probe(*lams: float) -> list[MeanFieldSolution]:
        """Solve at each lam, in one batch, and move the bracket end on the
        side of each one in [lo, hi] to it, in turn."""
        nonlocal solves, lo, hi, at_hi
        solves += len(lams)
        C, om = _scan_arrays(model, which, np.array(lams), tie)
        sols = _solve_batch(om, energies, C)
        for lam, sol in zip(lams, sols):
            if lo <= lam <= hi:
                if sol.superradiant:
                    hi, at_hi = lam, sol
                else:
                    lo = lam
        return sols

    lam2 = _spinodal(omega_eff, energies, C0, D, lo, hi)
    root = lam2 if _accept(lam2, hi, np.inf, lo, hi) else None
    first, last = lo, hi
    below = [root - 0.4 * tol] if root is not None and root - 0.4 * tol > lo else []
    at_lo, at_last, *_ = probe(lo, hi, *below)
    if at_lo.superradiant:
        raise BracketError(f"no transition in bracket: x* != 0 already at coupling {first}")
    if not at_last.superradiant:
        raise BracketError(f"no transition in bracket: x* = 0 still at coupling {last}")

    lam, step, branch, newton = hi, hi - lo, _sr_branch(at_hi), True
    converged = root is not None and lo <= root <= hi    # lam2, unless x* != 0 below it
    while hi - lo > tol:
        if converged:
            delta = DELTA_REL * root
            across = [p for p in (root - 0.4 * tol, root + 0.4 * tol) if lo < p < hi]
            jump[root] = probe(*across, root - delta, root + delta)[-2:]
            converged = newton = False
            continue
        p = _newton_root(energies, C0, D, lam, branch) if newton else None
        if _accept(p, lam, step, lo, hi):
            root, converged = p, abs(p - lam) < 0.4 * tol
            if converged:
                continue
            step, lam = abs(p - lam), p
            # a minimum at x < 0 is the one of -C(lam) at |x|
            sign, C = (1.0 if branch[0] > 0.0 else -1.0), C0 + p * D
            x = _track(omega_eff, energies, sign * C, abs(branch[0]))
            if x is not None:
                branch = (sign * x, float(_energies(omega_eff, energies, C, sign * x)))
                continue
        else:
            p = 0.5 * (lo + hi)
            step, lam = abs(p - lam), p
        (sol,) = probe(p)
        branch = _sr_branch(sol)
    lam_c = root if root is not None and lo <= root <= hi else 0.5 * (lo + hi)

    delta = DELTA_REL * lam_c
    below, above = jump.get(lam_c) or probe(lam_c - delta, lam_c + delta)
    x_jump = abs(above.x_star - below.x_star)
    pop_jump = float(np.max(np.abs(above.occupations - below.occupations)))
    return TransitionPoint(
        coupling_value=lam_c,
        order="first" if x_jump > JUMP_THRESHOLD else "second",
        x_jump=x_jump,
        pop_jump=pop_jump,
        solves=solves,
    )


def no_go_check(model: DickeModel, lambda_max: float, n_points: int = DEFAULT_N_POINTS,
                which: tuple[int, int] = (0, 1),
                kappa_rule: Literal["fixed", "trk-ground"] = "fixed") -> bool:
    """True iff the model stays normal for every coupling in [0, lambda_max].

    kappa_rule "fixed" keeps model.kappa; "trk-ground" sets, at each scan
    point, kappa = trk_kappa_min(lam_01, eps_1), the model module's TRK
    bound on the ground transition, which saturates the two-level no-go but
    leaves excited couplings free.  The scan points come from _scan_arrays,
    as in scan_order_parameter and critical_coupling.
    The points are solved in ascending blocks of _NO_GO_BLOCK, and the
    first block with a superradiant point answers False; an input whose
    scan range overflows raises SolverError before any block is solved.
    """
    check_lambda_max(lambda_max)
    check_n_points(n_points)
    check_kappa_rule(kappa_rule)
    vals = np.linspace(0.0, lambda_max, n_points)
    C, omega_eff = _scan_arrays(model, which, vals, tie=None)
    if kappa_rule == "trk-ground":
        kappa = trk_kappa_min(C[:, 0, 1], float(model.atom.energies[1]))
        omega_eff = model.omega + 4.0 * kappa
    _x_max(omega_eff, model.atom.energies, C)
    for start in range(0, n_points, _NO_GO_BLOCK):
        block = slice(start, start + _NO_GO_BLOCK)
        sols = _solve_batch(omega_eff[block], model.atom.energies, C[block])
        if any(s.superradiant for s in sols):
            return False
    return True


def write_scan_csv(path, values: Sequence[float],
                   solutions: Sequence[MeanFieldSolution]) -> None:
    """Column order: coupling, x_star, e_star, pop_0..pop_{d-1}, n_local_minima."""
    d = solutions[0].occupations.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coupling", "x_star", "e_star",
                         *[f"pop_{j}" for j in range(d)], "n_local_minima"])
        for value, sol in zip(values, solutions):
            writer.writerow([repr(float(value)), repr(sol.x_star), repr(sol.e_star),
                             *[repr(float(p)) for p in sol.occupations],
                             sol.n_local_minima])
