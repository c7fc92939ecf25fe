"""Finite-N exact diagonalization in the permutation-symmetric sector.

The N-atom Hilbert space is restricted to fully symmetric states, labeled by
occupation vectors (m_0, ..., m_{d-1}) with sum m_j = N, tensored with a
photon Fock space truncated at n_max.  Collective transition operators act
on occupations with bosonic amplitudes sqrt((m_j + 1) m_k), which is exact
inside the symmetric sector.

Basis index convention: index = n_ph * A + atomic_rank where A is the number
of occupation vectors; occupation vectors are ranked so the all-ground state
(N, 0, ..., 0) comes first (descending lexicographic order of the tuple).

The core works on kappa = 0 models only.  In the index above
H = D + (a + a') (x) J, with D diagonal and J the A x A collective coupling
(_coupling).  ed_ground splits H into blocks from J alone (_sectors): each
block is the states of one set of atomic states over every photon row, in
basis order as whole photon-row pairs (Sector).  It builds each block's
CSR matrix directly from these factors (build_hamiltonian), one at a time;
the full-basis H is built only when a caller asks for it.  One rule writes
every photon-row pair of a block: a template pair whose rows have all
three bands, shifted to the pair, less the entries whose row or column
lies outside the block.  An ARPACK block above _OPERATOR_CUTOFF states
stores no matrix: ARPACK asks only for products, and _SectorOperator forms
them from D and J, with the block's states in atom-major order.  Every
ARPACK block's start is gathered at the block's own basis indices, in its
solver's order: the warm vector there, else its parity partner's image,
else the mean-field product of two factors (ed_ground), so no
basis-sized start vector is made.

A model with kappa > 0 is solved in its Bogoliubov photon basis
(_bogoliubov; Emary and Brandes, PRE 67, 066203 (2003)):
omega a'a + kappa (a + a')^2 = omega' b'b + (omega' - omega)/2 with
omega' = sqrt(omega (omega + 4 kappa)) and a + a' = s (b + b'),
s^2 = omega / omega'.  So H is the kappa = 0 model with photon frequency
omega' and couplings s lam, plus a constant; ed_ground adds the constant
to e0, observables maps the photon moments back to a, and the photon
index of psi0, n_max and n_max_used count b quanta.

ed_ground solves at a fixed photon cutoff and measures how far its ground
vector leaks out of the truncated Fock space (truncation_residual).
converge_cutoff grows the cutoff with one ed_ground call per step and stops
at the first step whose truncation residual is at most TOL_E.

Built once: what depends on the model alone.  The atomic states
(_enumerate_occupations, per N and d) and J (_coupling, per model) do not
depend on the cutoff, and S = sign(a + a') (_parity_flip) depends on n_max
alone.  Each is a one-entry cache of read-only arrays, so the blocks of one
ed_ground call, the steps of converge_cutoff and a later full-basis
build_hamiltonian of the same model share one, and each is rebuilt only
when its key changes.  The last model's atomic states and J and the last
cutoff's S stay alive after a call, bounded by max_dim: the atomic states
are A x d and J has at most d (d - 1) entries per row, with A <= dim <=
max_dim, and ed_ground builds S, about (n_max + 1)^2 / 2 entries, only
where (n_max + 1)^2 <= max_dim.

scipy is imported where it is called (_dot, _coupling, _sectors,
build_hamiltonian, _SectorOperator, _parity_flip, _partner_image,
ground_state, _eigsh_takes_rng, _lanczos, observables), so importing this
module loads numpy only, and only the ED commands (ed-ground, ed-nscan)
load scipy.

One BLAS: the numpy and scipy wheels each bundle their own OpenBLAS, each
with a thread pool whose workers spin for a while after a threaded call.
ARPACK runs on scipy's, so every BLAS call here whose operand grows with
the basis, a block or the cutoff runs on scipy's too: dot products and
norms through _dot and _norm, the S products and the atomic sums through
scipy.linalg.blas.dgemm and dgemv, none through numpy's @ or
np.linalg.norm.  numpy's pool then stays asleep during a solve instead of
spinning on the cores that ARPACK's threads wait on; numpy's BLAS and
LAPACK see d x d single-atom matrices only.  _SectorOperator's products
are scipy sparse products and elementwise passes, with no BLAS call at
all.  Dot products and norms give numpy's bits; a dgemm can differ from
numpy's in the last bit where the two OpenBLAS builds split it
differently.  Where numpy and scipy share one BLAS nothing changes.  No
BLAS thread count is set here.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import meanfield
from .errors import ConvergenceError, ResourceLimitError, SolverError
from .model import AtomSpec, DickeModel, single_atom_matrices

DENSE_CUTOFF = 256    # dense eigh and ARPACK take about equally long at this dim
_OPERATOR_CUTOFF = 2**15   # above this dim a product with _SectorOperator costs what CSR's does
MAX_DIM_DEFAULT = 5_000_000
TOL = 1e-10           # ARPACK stops at this Ritz residual relative to |e0|
TOL_E = 1e-8          # converge_cutoff stops when the truncation residual is at most this
_CUTOFF_GROWTH = 1.5
_CUTOFF_STEPS = 16    # converge_cutoff raises ConvergenceError after this many steps


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two vectors on scipy's BLAS, 0 for empty ones (which its
    ddot wrapper rejects)."""
    from scipy.linalg import blas

    return blas.ddot(a, b) if len(a) else 0.0


def _norm(v: np.ndarray) -> float:
    """||v|| on scipy's BLAS: sqrt(v . v), which is how np.linalg.norm forms it."""
    return math.sqrt(_dot(v, v))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _enumerate_occupations(n_atoms: int, d: int) -> np.ndarray:
    """All occupation vectors, descending lex, (N, 0, ..., 0) first, as one
    read-only (A, d) array.

    Stars and bars: d - 1 bars placed among N + d - 1 slots leave the gaps
    m_0, ..., m_{d-1} between them.  itertools.combinations yields the bar
    positions in ascending lex order, which is ascending lex order of m, so
    the reversed list is the basis order.
    """
    slots = n_atoms + d - 1
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), d - 1)),
                       dtype=np.int64).reshape(-1, d - 1)
    states = np.diff(bars[::-1], axis=1, prepend=-1, append=slots) - 1
    states.flags.writeable = False
    return states


def _rank(states: np.ndarray) -> np.ndarray:
    """Descending-lex rank of every row of an (M, d) array of occupation vectors.

    m is preceded by the vectors that agree with it on levels 0..j-1 and put
    more atoms in level j.  With t_j = m_{j+1} + ... + m_{d-1} atoms above
    level j and s_j = d - 1 - j levels to hold them, there are
    comb(t_j + s_j - 1, s_j) of those (zero when t_j = 0).
    """
    d = states.shape[1]
    tails = np.cumsum(states[:, :0:-1], axis=1)[:, ::-1]  # t_0 .. t_{d-2}
    table = np.array([[math.comb(t + s - 1, s) for s in range(d - 1, 0, -1)]
                      for t in range(int(tails.max(initial=0)) + 1)], dtype=np.int64)
    return table[tails, np.arange(d - 1)].sum(axis=1)


@dataclass(frozen=True)
class SymmetricBasis:
    n_atoms: int
    d: int
    n_max: int
    atomic_states: np.ndarray = field(repr=False)

    @property
    def n_atomic(self) -> int:
        return self.atomic_states.shape[0]

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * self.n_atomic

    def rank(self, m: Sequence[int]) -> int:
        """Position of occupation vector m in the descending-lex ordering."""
        m = tuple(int(v) for v in m)
        if len(m) != self.d or any(v < 0 for v in m) or sum(m) != self.n_atoms:
            raise ValueError(f"not an occupation vector for N={self.n_atoms}, d={self.d}: {m}")
        return int(_rank(np.array([m], dtype=np.int64))[0])

    def unrank(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.n_atomic:
            raise ValueError(f"rank out of range: {rank}")
        return tuple(int(v) for v in self.atomic_states[rank])

    def index(self, n_ph: int, m: Sequence[int]) -> int:
        if not 0 <= n_ph <= self.n_max:
            raise ValueError(f"photon number out of range: {n_ph}")
        return n_ph * self.n_atomic + self.rank(m)


def _digits(n: int) -> str:
    """n in full up to 15 digits, else rounded to 4 significant ones (~1.500e+308)."""
    if abs(n) < 10**15:
        return str(n)
    import decimal      # exact for any int, where float(n) overflows past 1e308

    return f"~{decimal.Decimal(n):.3e}"


def build_basis(n_atoms: int, d: int, n_max: int,
                max_dim: int = MAX_DIM_DEFAULT) -> SymmetricBasis:
    if n_atoms < 1 or d < 2 or n_max < 0:
        raise ValueError("need n_atoms >= 1, d >= 2, n_max >= 0")
    n_atomic = math.comb(n_atoms + d - 1, d - 1)
    dim = (n_max + 1) * n_atomic
    if dim > max_dim:
        raise ResourceLimitError(
            f"basis dimension {_digits(dim)} exceeds max_dim {_digits(max_dim)} "
            f"(N={_digits(n_atoms)}, d={d}, n_max={_digits(n_max)})")
    return SymmetricBasis(n_atoms=n_atoms, d=d, n_max=n_max,
                          atomic_states=_enumerate_occupations(n_atoms, d))


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def _bogoliubov(model: DickeModel) -> tuple[DickeModel, float]:
    """The kappa = 0 model that H equals in the Bogoliubov photon basis, and s.

    omega a'a + kappa (a + a')^2 = omega' b'b + (omega' - omega)/2 with
    omega' = sqrt(omega (omega + 4 kappa)) and a + a' = s (b + b'),
    s^2 = omega / omega', so H is the returned model (photon frequency
    omega', couplings s lam, same atoms) plus (omega' - omega)/2.  A
    kappa = 0 model comes back unchanged with s = 1.  omega' is formed as
    sqrt(omega) sqrt(omega + 4 kappa), which stays finite wherever
    omega + 4 kappa does; a non-finite omega' or s raises SolverError.
    """
    if model.kappa == 0.0:
        return model, 1.0
    omega = math.sqrt(model.omega) * math.sqrt(model.omega + 4.0 * model.kappa)
    s = math.sqrt(model.omega / omega)
    if not (math.isfinite(omega) and math.isfinite(s)):
        raise SolverError(f"Bogoliubov transform not finite: omega' {omega:g}, s {s:g}")
    atom = AtomSpec(model.atom.energies, s * model.atom.couplings)
    return DickeModel(omega, atom, n_atoms=model.n_atoms), s


@functools.lru_cache(maxsize=1)
def _coupling(model: DickeModel) -> sp.csr_matrix:
    """J, the A x A collective coupling in H = D + (a + a') (x) J, over the
    atomic states of _enumerate_occupations(model.n_atoms, model.atom.d).

    The collective move k -> j takes occupation vector m to m' with
    amplitude lam_jk sqrt((m_j + 1) m_k) / sqrt(N); J holds it at (m', m)
    and at (m, m'), as canonical CSR with read-only arrays.  The last
    model's J is kept (models compare and hash by value), so the blocks of
    an ed_ground call and the steps of converge_cutoff share one.
    """
    import scipy.sparse as sp

    atom = model.atom
    states = _enumerate_occupations(model.n_atoms, atom.d)
    coef = 1.0 / math.sqrt(model.n_atoms)
    src, moved, amp = [np.empty(0, np.int64)], [np.empty((0, atom.d), np.int64)], [np.empty(0)]
    for j, k in coupling_pairs(atom.d):
        lam = atom.couplings[j, k]
        if lam == 0.0:
            continue
        have_k = np.nonzero(states[:, k])[0]
        to_j = states[have_k]
        to_j[:, j] += 1
        to_j[:, k] -= 1
        src.append(have_k)
        moved.append(to_j)
        amp.append((lam * coef) * np.sqrt(to_j[:, j] * states[have_k, k]))    # (m_j + 1) m_k
    src, amp = np.concatenate(src), np.concatenate(amp)
    dst = _rank(np.concatenate(moved))         # one rank table for every pair
    A = states.shape[0]
    J = sp.csr_matrix((np.concatenate([amp, amp]),
                       (np.concatenate([dst, src]), np.concatenate([src, dst]))), shape=(A, A))
    for part in (J.data, J.indices, J.indptr):
        part.flags.writeable = False
    return J


@dataclass(frozen=True)
class Sector:
    """The basis states n * A + r with 0 <= n <= n_max and r in atoms[n % 2].

    atoms holds two ascending arrays of atomic ranks, the even and the odd
    photon rows' part of one component of _sectors' graph.  The states keep
    the basis order, which takes the photon rows in pairs (2k, 2k + 1): each
    pair holds atoms[0] in row 2k, then atoms[1] in row 2k + 1, so the
    sector is a (pairs x step) array, step = atoms[0].size + atoms[1].size,
    without the odd half of its last pair when n_max is even.
    """
    atoms: tuple[np.ndarray, np.ndarray]
    n_max: int

    @property
    def size(self) -> int:
        """The number of states: the padded array's, less its padding."""
        pad = self.atoms[1].size if self.n_max % 2 == 0 else 0
        return (self.n_max // 2 + 1) * (self.atoms[0].size + self.atoms[1].size) - pad

    def indices(self, n_atomic: int) -> np.ndarray:
        """The sector's basis indices, ascending."""
        pair = 2 * n_atomic * np.arange(self.n_max // 2 + 1)[:, None]
        idx = np.concatenate([pair + self.atoms[0], pair + n_atomic + self.atoms[1]], axis=1)
        return idx.ravel()[:self.size]


def _sectors(J: sp.csr_matrix, n_max: int) -> list[Sector]:
    """The blocks of H, ordered by lowest basis index.

    For n_max >= 1 they come from a graph on the 2A vertices (n mod 2, r),
    in which J joins (p, r) to (1 - p, r'): each component is the Sector of
    its two atom sets over photon rows 0..n_max, so the atom sets do not
    depend on n_max.  Each J edge is a photon hop of H, and a J neighbour
    of r links every photon row of r to the rows two above and below it,
    so a component with an edge is a connected component of H.  A vertex
    without one (r has no J neighbour) gives the states of r in the photon
    rows of its parity, on which H is diagonal.  Vertex (p, r) is numbered
    p A + r, which is also the basis index of the state (p, r), so a
    component's lowest vertex is its block's lowest basis index.  At
    n_max = 0 no state has a photon hop, and each state is a block.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    A = J.shape[0]
    if n_max == 0:
        none = np.empty(0, dtype=np.int64)
        return [Sector((np.array([r]), none), 0) for r in range(A)]
    # symmetric, so its strong components are its components
    graph = sp.csr_matrix((np.ones(2 * J.nnz), np.concatenate([J.indices + A, J.indices]),
                           np.concatenate([J.indptr, J.indptr[1:] + J.nnz])),
                          shape=(2 * A, 2 * A))
    labels = connected_components(graph, directed=True, connection="strong")[1]
    order, sizes = labels.argsort(kind="stable"), np.bincount(labels)
    components = sorted(np.split(order, sizes.cumsum()[:-1]), key=lambda verts: verts[0])
    return [Sector((verts[verts < A], verts[verts >= A] - A), n_max) for verts in components]


def build_hamiltonian(model: DickeModel, basis: SymmetricBasis,
                      sector: Sector | None = None) -> sp.csr_matrix:
    """Sparse symmetric H on one sector, or on the whole basis when sector is
    None, as canonical CSR in ascending basis index (both triangles stored).

    H = D + (a + a') (x) J, with the diagonal D = omega n + sum_j eps_j m_j
    and J = _coupling(model), which is built once per model: the blocks of
    one cutoff and the cutoffs of one model share it.
    The model must have kappa = 0 (ValueError otherwise); ed_ground maps
    kappa > 0 onto such a model (_bogoliubov).  Row (n, r) holds, in column
    order, up to three bands: sqrt(n) J[r] on photon row n-1, D and
    sqrt(n+1) J[r] on row n+1, each as far as that photon row exists.

    One rule writes every photon-row pair: pair k's entries are a template
    pair's entries, in which every row has all three bands, shifted by
    k step states, and an entry is kept where its row and its column lie in
    [0, sector.size).  This drops the row n-1 band of photon row 0, the row
    n+1 band of row n_max and, when n_max is even, the odd half of the last
    pair.  So every diagonal entry is stored, zeros included, and each of
    the n_max links between neighbouring photon rows carries every J entry
    of the atoms on one side twice: nnz = size + 2 n_max (J entries of
    atoms[0]).  One loop writes indptr, indices and data a bounded number
    of pairs at a time, so nothing of the matrix's size is allocated
    besides the matrix.  A pass copies its entries up to the first dropped
    one as they are and filters only the rest, so a pass of interior pairs
    copies all of its entries.
    """
    import scipy.sparse as sp
    from scipy.linalg import blas

    if model.atom.d != basis.d or model.n_atoms != basis.n_atoms:
        raise ValueError("model and basis disagree on d or n_atoms")
    if model.kappa != 0.0:
        raise ValueError("build_hamiltonian takes kappa = 0 models; map others with _bogoliubov")
    A = basis.n_atomic
    J = _coupling(model)
    if sector is None:
        sector = Sector((np.arange(A),) * 2, basis.n_max)

    # One template row per state of a photon-row pair, atoms[0] + atoms[1]:
    # its entries in a pair whose rows have every band, in column order: its
    # J row at n-1, D, its J row at n+1, with the J rows padded to the
    # longest one.  Each entry has a band (0-2 for n-1 .. n+1), a column
    # counted from the pair's first state, and val and plus that make it
    # factor[pair, 3 (n % 2) + band] * val + plus (plus is sum_j eps_j m_j
    # on the diagonal, whose factor holds the rest of D).  The real
    # entries, row by row, are the pair's entries in CSR order.
    a = [atoms.size for atoms in sector.atoms]
    n_max, size, step = sector.n_max, sector.size, sum(a)
    atoms = np.concatenate(sector.atoms)
    odd = np.arange(step) >= a[0]
    # at n_max 0 no state has a photon hop
    counts = np.diff(J.indptr)[atoms] if n_max else np.zeros(step, int)
    slot = np.arange(int(counts.max(initial=0)))
    hop = slot < counts[:, None]
    ent = np.where(hop, J.indptr[atoms][:, None] + slot, 0)
    inv = np.empty(2 * A, dtype=np.int64)                 # (parity, r) -> its place in its row
    inv[atoms + A * odd] = np.arange(step) - a[0] * odd
    # each hop's column on row n-1, counted from the pair's first state
    other = inv[J.indices[ent] + A * ~odd[:, None]] + np.where(odd, 0, -a[1])[:, None]
    band = np.repeat([0, 1, 2], [slot.size, 1, slot.size])
    col = np.concatenate([other, np.arange(step)[:, None], other + step], axis=1)
    val = np.concatenate([J.data[ent], np.ones((step, 1)), J.data[ent]], axis=1)
    level_sum = blas.dgemv(1.0, basis.atomic_states[atoms].T, model.atom.energies, trans=True)
    plus = np.where(band == 1, level_sum[:, None], 0.0)
    real = np.concatenate([hop, np.ones((step, 1), bool), hop], axis=1)
    cell = 3 * odd[:, None] + band                        # the entry's column of factor

    # each row pair's factor [sqrt(n), omega n, sqrt(n+1)] for n = 2k, 2k+1;
    # an entry that overflows stays inf, for ground_state to reject
    ns = np.arange(2 * (n_max // 2) + 2, dtype=float)
    with np.errstate(over="ignore"):
        factor = np.column_stack([np.sqrt(ns), model.omega * ns, np.sqrt(ns + 1.0)]).reshape(-1, 6)

    # Pair k's entries are the real ones shifted by k step, and an entry is
    # kept where its row and its column lie in [0, size).
    nnz = size + 2 * n_max * int(counts[:a[0]].sum())
    index = np.int32 if max(nnz, size) < 2**31 else np.int64
    row = np.nonzero(real)[0]                             # each real entry's template row
    col, val, plus, cell = col[real].astype(index), val[real], plus[real], cell[real]
    chunk = min(2**15 // col.size + 1, len(factor))       # pairs per pass: bounds its temporaries
    lengths = np.tile(real.sum(axis=1), chunk)            # a pass's row lengths before the rule
    # indptr holds the row lengths, summed at the end
    data, indices, indptr = np.empty(nnz), np.empty(nnz, index), np.zeros(size + 1, index)
    at = 0
    for k in range(0, len(factor), chunk):
        pairs = np.arange(k, min(k + chunk, len(factor)))
        # the pairs' entries in CSR order, up to the first one whose row is past size
        end = (pairs.size - 1) * col.size + np.searchsorted(row, size - pairs[-1] * step)
        cols = (col + (pairs * step).astype(index)[:, None]).ravel()[:end]
        keep = (cols >= 0) & (cols < size)
        gone = np.flatnonzero(~keep)
        first, stop = k * step, min((k + pairs.size) * step, size)
        # a row's length is its template row's, less the entries dropped from it
        drop = np.bincount(row[gone % col.size] + step * (gone // col.size), minlength=lengths.size)
        indptr[first + 1:stop + 1] = (lengths - drop)[:stop - first]
        values = np.take(factor[pairs], cell, axis=1)
        values *= val
        values += plus
        # the entries before the first dropped one are copied as they are
        lo, width = (gone[0] if gone.size else end), end - gone.size
        for out, part in ((indices, cols), (data, values.ravel()[:end])):
            out[at:at + lo] = part[:lo]
            out[at + lo:at + width] = part[lo:][keep[lo:]]
        at += width
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


class _SectorOperator:
    """H on one sector as a product, with no stored matrix: ed_ground's
    ARPACK blocks above _OPERATOR_CUTOFF states.  Below about 2e4 states
    its dozen array calls cost more than a CSR product.

    Its states are atom-major: atoms[0] over the even photon rows, then
    atoms[1] over the odd ones, with the photon rows of each atomic state
    contiguous.  So a vector is X_E (|atoms[0]| x even rows) followed by
    X_O (|atoms[1]| x odd rows), and with J_eo = J[atoms[0]][:, atoms[1]]
    and D = omega n + sum_j eps_j m_j (formed as build_hamiltonian forms it):
    (Hx)_E[:, k] = D_E X_E[:, k] + J_eo (sqrt(2k+1) X_O[:, k] + sqrt(2k) X_O[:, k-1]),
    (Hx)_O[:, k] = D_O X_O[:, k] + J_eo' (sqrt(2k+1) X_E[:, k] + sqrt(2k+2) X_E[:, k+1]).
    That is two scipy sparse products on contiguous arrays plus elementwise
    passes, and no BLAS call.  An entry of D that overflows stays inf, for
    ground_state to reject (finite).
    """

    def __init__(self, model: DickeModel, basis: SymmetricBasis, sector: Sector):
        from scipy.linalg import blas

        J = _coupling(model)
        even, odd = sector.atoms
        level_sum = blas.dgemv(1.0, basis.atomic_states[np.concatenate(sector.atoms)].T,
                               model.atom.energies, trans=True)
        ns = np.arange(sector.n_max + 1.0)
        with np.errstate(over="ignore"):
            omega_n = model.omega * ns
        self.n_max = sector.n_max
        self.shape = (sector.size, sector.size)
        self.diag = (level_sum[:even.size, None] + omega_n[0::2],
                     level_sum[even.size:, None] + omega_n[1::2])
        self.hop = (J[even][:, odd], J[odd][:, even])      # J_eo and J_eo'
        # odd row n's hops: sqrt(n) to row n - 1 and sqrt(n + 1) to row n + 1
        self.down, self.up = np.sqrt(ns[1::2]), np.sqrt(ns[1::2] + 1.0)

    def finite(self) -> bool:
        """Whether every entry is finite: D, and each J entry times
        sqrt(n_max), the largest photon factor of a hop."""
        with np.errstate(over="ignore"):
            hops = self.hop[0].data * math.sqrt(self.n_max)
        return bool(np.isfinite(self.diag[0]).all() and np.isfinite(self.diag[1]).all()
                    and np.isfinite(hops).all())

    def order(self) -> np.ndarray:
        """Each state's position in the sector's basis order: the positions
        of the sector's padded (pairs x step) array, read atom-major."""
        (a0, n_even), (a1, n_odd) = self.diag[0].shape, self.diag[1].shape
        pairs = np.arange(n_even * (a0 + a1)).reshape(n_even, a0 + a1)
        return np.concatenate([pairs[:, :a0].T.ravel(), pairs[:n_odd, a0:].T.ravel()])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        (d_e, d_o), (j_eo, j_oe), down, up = self.diag, self.hop, self.down, self.up
        n_even, n_odd, split = d_e.shape[1], d_o.shape[1], d_e.size
        x = np.ravel(x)
        x_e, x_o = x[:split].reshape(d_e.shape), x[split:].reshape(d_o.shape)
        y = np.empty(x.size)
        y_e, y_o = y[:split].reshape(d_e.shape), y[split:].reshape(d_o.shape)
        # what each even row k sees of the odd rows 2k + 1 and 2k - 1
        u = np.zeros((d_o.shape[0], n_even))
        np.multiply(x_o, down, out=u[:, :n_odd])
        u[:, 1:] += x_o[:, :n_even - 1] * up[:n_even - 1]
        np.multiply(d_e, x_e, out=y_e)
        y_e += j_eo @ u
        del u
        # what each odd row k sees of the even rows 2k and 2k + 2
        w = x_e[:, :n_odd] * down
        w[:, :n_even - 1] += x_e[:, 1:] * up[:n_even - 1]
        np.multiply(d_o, x_o, out=y_o)
        y_o += j_oe @ w
        return y


def parity_compatible(atom: AtomSpec) -> bool:
    """True when Pi = (-1)^(n + sum j m_j) commutes with the coupling term."""
    return all(atom.couplings[j, k] == 0.0 or (k - j) % 2
               for j, k in coupling_pairs(atom.d))


def parity_signs(basis: SymmetricBasis) -> np.ndarray:
    """Diagonal of Pi over the full basis, shape (dim,), entries +/-1."""
    weights = basis.atomic_states @ np.arange(basis.d)
    s_atom = np.where(weights % 2 == 0, 1.0, -1.0)
    s_ph = np.where(np.arange(basis.n_max + 1) % 2 == 0, 1.0, -1.0)
    return (s_ph[:, None] * s_atom[None, :]).ravel()


def mean_field_state(model: DickeModel, basis: SymmetricBasis, x_star: float) -> np.ndarray:
    """Mean-field product state |sqrt(N) x*> (x) |c>^N in the basis, unit norm.

    c is the lowest eigenvector of diag(eps) + 2 x* lam.  The photon factor
    has the coherent amplitudes e^(-mu/2) mu^(n/2) / sqrt(n!), mu = N x*^2,
    and occupation vector m has the amplitude sqrt(N! / prod m_j!) prod c_j^m_j.
    Both factors are formed from logarithms, so large N and n_max neither
    overflow nor underflow to an all-zero vector.  ed_ground does not call
    this: it gathers each block's part of the unnormalized product.
    """
    psi = np.outer(*_mean_field_factors(model, basis, x_star)).ravel()
    return psi / _norm(psi)


def _mean_field_factors(model: DickeModel, basis: SymmetricBasis,
                        x_star: float) -> tuple[np.ndarray, np.ndarray]:
    """mean_field_state's photon factor (over rows 0..n_max) and atomic
    factor (over the atomic states), signs included, each scaled so that its
    largest magnitude is 1: the state is their outer product, normalized."""
    N = basis.n_atoms
    c = np.linalg.eigh(single_atom_matrices(model.atom.energies, model.atom.couplings,
                                            x_star))[1][:, 0]
    states = basis.atomic_states
    ns = np.arange(basis.n_max + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, max(N, basis.n_max) + 1)))])
    with np.errstate(divide="ignore", invalid="ignore"):
        # x log y with 0 log 0 = 0; a zero base gives -inf, i.e. amplitude 0
        log_ph = np.where(ns > 0, 0.5 * ns * np.log(N * x_star**2), 0.0) - 0.5 * log_fact[ns]
        log_c = np.log(np.abs(c))
        log_at = (np.where(states > 0, states * log_c, 0.0).sum(axis=1)
                  - 0.5 * log_fact[states].sum(axis=1))
    sign_at = 1.0 - 2.0 * ((states @ (c < 0)) % 2)
    sign_ph = np.where((ns % 2 == 1) & (x_star < 0.0), -1.0, 1.0)   # <a> = sqrt(N) x* < 0
    return sign_ph * np.exp(log_ph - log_ph.max()), sign_at * np.exp(log_at - log_at.max())


@functools.lru_cache(maxsize=1)
def _parity_flip(n_max: int) -> np.ndarray:
    """S[even rows, odd rows] for S = sign(a + a') on photon rows 0..n_max,
    read-only; the last n_max's S is kept, so it is built once per n_max.

    a + a' is the zero-diagonal tridiagonal with off-diagonal sqrt(n).  It is
    odd under photon parity, and so is S, which therefore has no entry
    between two rows of one parity; S[odd rows, even rows] is the transpose.
    """
    from scipy.linalg import blas, eigh_tridiagonal

    w, v = eigh_tridiagonal(np.zeros(n_max + 1), np.sqrt(np.arange(1.0, n_max + 1)))
    # S' = v[1::2] (v[::2] sign(w))', the product BLAS forms for numpy's
    # (v[::2] sign(w)) @ v[1::2].T
    flip = blas.dgemm(1.0, v[1::2], (v[::2] * np.sign(w)).T).T
    flip.flags.writeable = False
    return flip


def _partner_image(vectors: np.ndarray, sector: Sector, basis: SymmetricBasis) -> np.ndarray | None:
    """The sector's part of (S (x) 1) vectors, in the sector's state order,
    with S = sign(a + a'); None where that part is zero.  S[even rows, odd
    rows] comes from _parity_flip(basis.n_max) only for a nonzero part, and
    is built at most once per n_max.

    Flipping n mod 2 permutes the components of _sectors' graph, so the
    state (n, r) of the sector reads only the states (m, r) with m of the
    other parity, which form its photon-parity partner: the part is zero
    unless that partner's vector is in vectors.  Each parity's rows come
    from one product of S with the partner's rows, written into the
    sector's padded (pairs x step) array, so no basis-sized temporary is
    made.
    """
    from scipy.linalg import blas

    rows = vectors.reshape(basis.n_max + 1, basis.n_atomic)
    even, odd = (rows[1 - p::2, atoms] for p, atoms in enumerate(sector.atoms))
    if not (even.any() or odd.any()):
        return None
    flip = _parity_flip(basis.n_max)
    image = np.empty((flip.shape[0], even.shape[1] + odd.shape[1]))
    # the fancy index makes even and odd Fortran-ordered, like flip.T, so
    # BLAS forms the transposes of S even and S' odd from them uncopied
    image[:, :even.shape[1]] = blas.dgemm(1.0, even, flip.T, trans_a=True).T
    image[:flip.shape[1], even.shape[1]:] = blas.dgemm(1.0, odd, flip.T, trans_a=True,
                                                       trans_b=True).T
    return image.ravel()[:sector.size]


# ---------------------------------------------------------------------------
# ground-state solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundState:
    e0: float
    vector: np.ndarray = field(repr=False)
    iterations: int
    residual_norm: float
    method: str


def _true_residual(H, psi: np.ndarray, e0: float, H_psi: np.ndarray | None = None) -> float:
    """||H psi - e0 psi||, from H_psi = H @ psi where the caller has it.
    Where its sum of squares overflows (entries above ~1e154, as for omega
    near 1e200), the norm is taken of the vector scaled by 2^-600, a power
    of two that rounds none of the entries that count, and scaled back."""
    r = (H @ psi if H_psi is None else H_psi) - e0 * psi
    norm = _norm(r)
    return norm if norm < math.inf else _norm(r * 2.0**-600) * 2.0**600


def ground_state(H, v0: np.ndarray | None = None, *, partner: bool = False) -> GroundState:
    """Lowest eigenpair of a real symmetric matrix (sparse or dense): dense
    eigh at or below DENSE_CUTOFF, else ARPACK from v0 (_lanczos).  A
    diagonal matrix, sparse with no stored entry off its diagonal or dense
    with no nonzero one, is solved exactly with no eigensolver: its lowest
    entry (the first of equal ones), that entry's unit vector and residual
    0.  A matrix with an inf or nan entry (a model whose energy scale
    overflows float64, as omega n for omega near 1e308) raises SolverError
    before any of this.  H can also be a _SectorOperator, a block with a
    photon hop and above DENSE_CUTOFF states that stores no matrix: it goes
    to ARPACK, and its entries are D and the J entries times at most
    sqrt(n_max), so those are what the finiteness rule checks.

    partner=True says that v0 is the image of a solved parity partner's
    ground vector (ed_ground's _partner_image), which can already be this
    matrix's ground vector.  Before ARPACK, the unit vector v along v0 is
    then tested with one product Hv: where its true residual r (with
    theta = v.Hv) meets ARPACK's own stopping rule r <= TOL |theta|, the
    result is (theta, v, r) with iterations 1 and method "partner", and no
    eigensolver runs.  A warm or mean-field start is never tested so: a
    zero-padded warm vector's residual is the previous cutoff's truncation
    residual, which converge_cutoff did not accept, and a product state is
    no eigenvector."""
    import scipy.linalg as sla
    import scipy.sparse as sp

    operator = isinstance(H, _SectorOperator)
    H = H if operator else sp.csr_matrix(H)
    if not (H.finite() if operator else np.isfinite(H.data).all()):
        raise SolverError("Hamiltonian has a non-finite entry: the model's energies "
                          "overflow float64")
    coo = H.tocoo() if not operator and H.nnz <= H.shape[0] else None
    if coo is not None and np.array_equal(coo.row, coo.col):
        entries = H.diagonal()
        low = np.argmin(entries)
        psi = np.zeros(entries.size)
        psi[low] = 1.0
        return GroundState(e0=float(entries[low]), vector=psi, iterations=0,
                           residual_norm=0.0, method="dense")
    if H.shape[0] > DENSE_CUTOFF:
        if partner:
            if v0 is None:
                raise ValueError("partner=True needs the image as v0")
            # a non-finite theta or r (an overflowing product) fails the
            # rule, and ARPACK takes the block as it would without the test
            with np.errstate(over="ignore", invalid="ignore"):
                v = v0 / _norm(v0)
                H_v = H @ v
                theta = _dot(v, H_v)
                r = _true_residual(H, v, theta, H_v)
            if math.isfinite(theta) and r <= TOL * abs(theta):
                return GroundState(e0=theta, vector=v, iterations=1, residual_norm=r,
                                   method="partner")
        return _lanczos(H, v0)
    w, v = sla.eigh(H.toarray(), subset_by_index=(0, 0))
    psi = v[:, 0]
    e0 = float(w[0])
    return GroundState(e0=e0, vector=psi, iterations=0,
                       residual_norm=_true_residual(H, psi, e0), method="dense")


@functools.cache
def _eigsh_takes_rng() -> bool:
    """Whether scipy's eigsh has an `rng` argument, decided once per process.

    ARPACK draws a fresh vector after a Lanczos breakdown.  scipy >= 1.16
    takes it from `rng` (OS entropy if omitted); older releases have no
    such argument and use ARPACK's own fixed generator.
    """
    from scipy.sparse.linalg import eigsh

    return "rng" in inspect.signature(eigsh).parameters


def _lanczos(H, v0: np.ndarray | None = None, max_iter: int | None = None) -> GroundState:
    """ARPACK's implicitly restarted Lanczos (scipy's eigsh with which="SA"),
    whose workspace stays at dim x ncv vectors, at any dimension.  H is a
    matrix or a _SectorOperator: ARPACK sees only its products H @ x, and
    v0 and the result are in H's own state order.

    The start vector is v0 when given (ed_ground passes each block's warm,
    partner-image or mean-field start, gathered at its indices), otherwise
    default_rng(0).standard_normal(dim).  The same fixed generator then
    draws ARPACK's restart vectors where eigsh takes one (_eigsh_takes_rng).
    ARPACK stops when the Ritz residual drops below TOL relative to |e0|.
    `iterations` counts matrix-vector products, and max_iter (default
    10 sqrt(dim) + 200) bounds them: running out raises ConvergenceError
    carrying the Rayleigh-quotient residual of the last Krylov vector
    (ARPACK returns no Ritz pair when k=1 fails).  Any other ARPACK failure
    is raised as ConvergenceError too.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    dim = H.shape[0]
    max_iter = max_iter or int(10 * math.sqrt(dim)) + 200
    rng = np.random.default_rng(0)     # the fallback start and ARPACK's restarts
    start = rng.standard_normal(dim) if v0 is None else np.asarray(v0, dtype=float)
    if not np.any(start):
        raise ValueError("start vector must be nonzero")
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        if matvecs == max_iter:
            psi = x / _norm(x)
            H_psi = H @ psi
            raise ConvergenceError(
                f"Lanczos did not reach tol {TOL:g} within {max_iter} matvecs",
                best_residual=_true_residual(H, psi, _dot(psi, H_psi), H_psi))
        matvecs += 1
        return H @ x

    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    restarts = {"rng": rng} if _eigsh_takes_rng() else {}
    try:
        w, v = eigsh(op, k=1, which="SA", v0=start, tol=TOL, maxiter=max_iter, **restarts)
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed after {matvecs} matvecs: {exc}") from exc
    psi = v[:, 0]
    e0 = float(w[0])
    return GroundState(e0=e0, vector=psi, iterations=matvecs,
                       residual_norm=_true_residual(H, psi, e0), method="lanczos")


# ---------------------------------------------------------------------------
# observables and drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDResult:
    e0: float
    photon_density: float
    quad: float
    populations: np.ndarray
    parity: float
    n_max_used: int
    n_atoms: int
    psi0: np.ndarray = field(repr=False)
    lanczos_iterations: int = 0
    residual_norm: float = math.nan
    truncation_residual: float = math.nan
    method: str = ""
    block_vectors: np.ndarray | None = field(default=None, repr=False)

    @property
    def e0_per_atom(self) -> float:
        return self.e0 / self.n_atoms


def observables(psi0: np.ndarray, basis: SymmetricBasis, model: DickeModel) -> EDResult:
    """Per-atom densities of a normalized state: photon number a'a,
    quadrature (a + a')^2, level populations, and photon parity.  The state
    itself is kept as psi0.

    psi0's photon index counts the quanta of b, the Bogoliubov mode of model
    (_bogoliubov; b = a when kappa = 0).  With a + a' = s (b + b') and
    a - a' = (b - b') / s, and from <b'b> and <b^2 + b'^2>:
    quad = s^2 <(b + b')^2> / N and
    photon_density = (<b'b> + ((s - 1/s)^2 (2 <b'b> + 1)
                      + (s^2 - s^-2) <b^2 + b'^2>) / 4) / N,
    which is <b'b> / N exactly at s = 1.  Parity and populations are the
    same in either basis.
    """
    from scipy.linalg import blas

    if model.atom.d != basis.d or model.n_atoms != basis.n_atoms:
        raise ValueError("model and basis disagree on d or n_atoms")
    s = _bogoliubov(model)[1]
    N = basis.n_atoms
    psi = np.asarray(psi0, dtype=float).reshape(basis.n_max + 1, basis.n_atomic)
    w = psi**2
    p_n = w.sum(axis=1)
    p_r = w.sum(axis=0)
    ns = np.arange(basis.n_max + 1)
    number = _dot(ns, p_n)
    cross = np.sqrt((ns[:-2] + 1.0) * (ns[:-2] + 2.0))      # empty below n_max 2
    pairs = 2.0 * _dot(cross, (psi[:-2] * psi[2:]).sum(axis=1))     # <b^2 + b'^2>
    photon = (number + ((s - 1.0 / s)**2 * (2.0 * number + 1.0)
                        + (s * s - 1.0 / (s * s)) * pairs) / 4.0) / N
    quad = s * s * (_dot(2.0 * ns + 1.0, p_n) + pairs) / N
    populations = blas.dgemv(1.0, basis.atomic_states.T, p_r) / N
    populations.flags.writeable = False
    parity = _dot(parity_signs(basis), psi.ravel() ** 2)
    return EDResult(e0=math.nan, photon_density=photon, quad=quad, populations=populations,
                    parity=parity, n_max_used=basis.n_max, n_atoms=N, psi0=psi.ravel())


def _truncation_residual(model: DickeModel, psi: np.ndarray, basis: SymmetricBasis) -> float:
    """Norm of row n_max+1 of (H' - e0) psi~, where psi~ is psi zero-padded to
    cutoff n_max + 1 and H' is the (kappa = 0) model's Hamiltonian there.

    Only the photon hop out of psi's top photon row reaches that row: it is
    sqrt(n_max+1) J psi_{n_max}, with J the model's collective coupling
    (_coupling), so no second Hamiltonian is built.  inf at n_max = 0, a
    cutoff that keeps no photon.
    """
    n, A = basis.n_max, basis.n_atomic
    return _norm(math.sqrt(n + 1) * (_coupling(model) @ psi[n * A:])) if n else math.inf


def ed_ground(model: DickeModel, n_max: int, max_dim: int = MAX_DIM_DEFAULT,
              warm: np.ndarray | None = None, x_star: float | None = None) -> EDResult:
    """Ground state of the finite-N model at a fixed photon cutoff.

    The result carries the normalized ground vector as psi0, over the full
    basis and zero outside the winning block, the ground vectors of all
    blocks as one full-basis vector, block_vectors, and the
    truncation_residual of psi0 (_truncation_residual): by Temple's bound,
    at every larger cutoff the winning block has an eigenvalue within its
    square over that block's gap of e0.

    The blocks are the connected components of H's sparsity graph, except
    that the states of an atomic state no coupling touches form one
    diagonal block per photon parity (_sectors).  So every conserved
    quantity splits H: the photon parity Pi = (-1)^(n_ph + sum_j j*m_j)
    when every coupled pair (j, k) has odd k - j, which keeps |<Pi>| = 1
    for the near-degenerate superradiant doublet, and a population sum when
    the couplings do not connect all levels.  They come from J alone, and
    each block's matrix is built (build_hamiltonian) and freed in turn, so
    the full-basis H is never formed; a diagonal block is solved exactly
    (ground_state).  A block that goes to ARPACK with more than
    _OPERATOR_CUTOFF states gets no matrix but a _SectorOperator, and its
    start and ground vector are read and written in that operator's order.
    The blocks are ordered by their lowest basis index.  The lowest block
    wins, except that among the blocks whose e0 lies within r_b + r_low of
    the lowest one (r the residual norms) the first one whose lowest basis
    state is even under Pi wins; this pins the parity of a quasi-degenerate
    doublet to the even sector.  A block above
    DENSE_CUTOFF that is not diagonal goes to ARPACK.  Its start is
    gathered at the block's own basis indices, in its solver's order, so no
    basis-sized start vector is made; where that start is zero the block
    starts from _lanczos's fixed vector, so every start and the result
    follow from the arguments alone.  With warm, the block_vectors of a
    smaller cutoff, the start is warm at those indices, 0 past warm's end:
    the basis index is n_ph * A + rank, so the old basis is a prefix of the
    new one and each old block lies inside one new block (from n_max 1 on,
    one with the same atom sets).  A warm longer than the basis raises
    ValueError.  Without warm, a block
    whose photon-parity partner was solved earlier in this call starts from
    its part of (S (x) 1) applied to the ground vectors solved so far
    (_partner_image), with S = sign(a + a').  S commutes with the coupling
    (a + a') (x) J and flips photon parity, so it takes the even member
    (L + R)/sqrt(2) of a superradiant doublet to the odd one
    (R - L)/sqrt(2), up to the tunnelling tail at x = 0.  Such a block is
    solved with partner=True: where the image already meets ARPACK's
    stopping rule, ground_state returns it with one product (method
    "partner"), so deep in the superradiant phase one ARPACK call solves
    the doublet.  The even member is solved first, as without the test,
    so wherever it wins the tie rule, only the odd part of block_vectors
    moves, by about the tolerance.  S has
    (n_max + 1)^2 entries and is made only when that is at most max_dim,
    the bound on the basis and so on every vector made here, and at most
    once per n_max, not per call (_parity_flip).  Other cold
    blocks start from the mean-field product state at x_star, the global
    mean-field minimum, which is computed here when not given: the state
    n * A + r has the amplitude ph[n] at[r], from one _mean_field_factors
    call per ed_ground call without warm.  That is mean_field_state without
    its normalization, which ARPACK applies to any start.

    Everything above is done for model0, the kappa = 0 model of
    _bogoliubov(model): blocks, starts and residual are those of H - c,
    c = (omega' - omega)/2, in the b photon basis, where the mean-field
    minimum sits at x_star / s.  e0 is that of H, the ground energy of
    model0 plus c, and n_max counts b quanta.
    """
    model0, s = _bogoliubov(model)
    basis = build_basis(model.n_atoms, model.atom.d, n_max, max_dim=max_dim)
    if warm is not None and warm.size > basis.dim:
        raise ValueError(f"warm has {warm.size} entries, more than the {basis.dim} basis states")
    sectors = _sectors(_coupling(model0), n_max)
    if warm is None:
        x = meanfield.minimize(model).x_star if x_star is None else x_star
        ph, at = _mean_field_factors(model0, basis, x / s)
    solves = []
    vectors = np.zeros(basis.dim)
    for sector in sectors:
        idx = sector.indices(basis.n_atomic)
        v0, partner, op = None, False, None
        # the block of one atomic state is diagonal: ground_state takes no start
        if idx.size > DENSE_CUTOFF and sector.atoms[0].size + sector.atoms[1].size > 1:
            if idx.size > _OPERATOR_CUTOFF:
                op = _SectorOperator(model0, basis, sector)
                idx = idx[op.order()]       # the operator's states, in its order
            if warm is None and (n_max + 1) ** 2 <= max_dim:
                v0 = _partner_image(vectors, sector, basis)
                partner = v0 is not None
                if partner and op is not None:
                    v0 = v0[op.order()]
            if v0 is None:
                if warm is None:
                    v0 = ph[idx // basis.n_atomic] * at[idx % basis.n_atomic]
                else:
                    v0 = np.zeros(idx.size)     # warm at idx, 0 past its end
                    v0[idx < warm.size] = warm[idx[idx < warm.size]]
                if not v0.any():
                    v0 = None
        gs = ground_state(build_hamiltonian(model0, basis, sector) if op is None else op,
                          v0=v0, partner=partner)
        vectors[idx] = gs.vector
        solves.append(dataclasses.replace(gs, vector=None))     # the vector lives in vectors
        del idx, v0, gs, op     # nothing of this block stays alive while the next is built
    e0 = np.array([gs.e0 for gs in solves])
    resid = np.array([gs.residual_norm for gs in solves])
    low = int(np.argmin(e0))
    tied = e0 - (resid + resid[low]) <= e0[low]
    # Pi of each block's lowest basis state: its first atoms[0] state in photon
    # row 0, or, where atoms[0] is empty, its first atoms[1] state in row 1
    weights = basis.atomic_states @ np.arange(basis.d)
    even = np.array([(weights[s.atoms[0][0]] if s.atoms[0].size else weights[s.atoms[1][0]] + 1)
                     % 2 == 0 for s in sectors])
    best = next((int(b) for b in np.flatnonzero(tied & even)), low)
    gs = solves[best]
    psi = np.zeros(basis.dim)
    idx = sectors[best].indices(basis.n_atomic)
    psi[idx] = vectors[idx]
    return dataclasses.replace(
        # minus, not plus: x - 0.0 is x for every x, so kappa = 0 keeps e0's bits
        observables(psi, basis, model), e0=gs.e0 - (model.omega - model0.omega) / 2.0,
        lanczos_iterations=gs.iterations, residual_norm=gs.residual_norm,
        truncation_residual=_truncation_residual(model0, psi, basis),
        method=gs.method, block_vectors=vectors)


def _first_cutoff(model: DickeModel, x_star: float, max_dim: int) -> int:
    """converge_cutoff's first n_max: ceil(max(4 mu, mu + 10 sqrt(mu))) + 16,
    with mu = N (x*/s)^2 the mean-field density of b photons (_bogoliubov).

    A cutoff above max_dim fails build_basis, so the bound is capped there,
    which also keeps an overflow to inf out of ceil.
    """
    mu = model.n_atoms * (x_star / _bogoliubov(model)[1])**2
    return math.ceil(min(max(4.0 * mu, mu + 10.0 * math.sqrt(mu)), max_dim)) + 16


def converge_cutoff(model: DickeModel, max_dim: int = MAX_DIM_DEFAULT,
                    x_star: float | None = None) -> EDResult:
    """Grow n_max by a factor 1.5 (at least +8) until the truncation residual
    of the ground vector is at most TOL_E.

    The truncation residual r is the part of (H - e0) psi that a larger
    cutoff adds (ed_ground).  When r <= TOL_E, Temple's bound puts an
    eigenvalue of the winning block at infinite cutoff within
    r^2 / delta <= TOL_E of e0 for any in-block gap delta >= TOL_E, so a
    step is accepted after one solve.  The rule certifies only that: not
    that this eigenvalue is the block's lowest, and nothing about the
    blocks that lost at this cutoff (with lambda_01 = 0, the states
    |n, all-ground> form two diagonal blocks, one per photon parity, with
    r = 0).  The starting
    cutoff comes from the mean-field density mu = N (x*/s)^2 of b photons
    (_bogoliubov): n_max0 = ceil(max(4 mu, mu + 10 sqrt(mu))) + 16
    (_first_cutoff).  mu + 10 sqrt(mu) + 16 is calibrated on the smallest
    cutoff with r <= TOL_E, found by bisection, of superradiant two-level
    (N 2 to 40) and ladder (N 4 to 80) models, and lies at or above each.
    It is the larger term for mu < 100/9, so a superradiant two-level model
    at small N is accepted after one solve like a superradiant ladder; at
    x* = 0 the first cutoff is 16.  Each step is one ed_ground call,
    given x* and, after the first step, the previous step's block_vectors as
    warm; the steps share the model's J and atomic states, built by the
    first (_coupling).  The result is the accepted step's ed_ground result;
    only the e0 of earlier steps is kept.  Any SolverError that leaves a
    step, and the ConvergenceError raised when no step is accepted within
    _CUTOFF_STEPS, carries the (n_max, e0) pairs measured so far as
    ``trace``.  x_star is that mean-field minimum, computed here when not
    given; it does not depend on n_atoms, so a scan over N can compute it
    once.
    """
    x_mf = meanfield.minimize(model).x_star if x_star is None else x_star
    n = _first_cutoff(model, x_mf, max_dim)
    trace: list[tuple[int, float]] = []
    warm = None
    residual = math.inf
    for _ in range(_CUTOFF_STEPS):
        try:
            res = ed_ground(model, n, max_dim, warm=warm, x_star=x_mf)
        except SolverError as exc:
            exc.trace = trace
            raise
        trace.append((n, res.e0))
        residual = res.truncation_residual
        if residual <= TOL_E:
            return res
        warm = res.block_vectors
        del res  # free its psi0 before the next, larger step
        n = max(n + 8, math.ceil(_CUTOFF_GROWTH * n))
    raise ConvergenceError(
        f"truncation residual {residual:.3g} still above {TOL_E:g} "
        f"after {_CUTOFF_STEPS} cutoff steps", trace=trace)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def coupling_pairs(d: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


def ed_csv_header(d: int) -> list[str]:
    return (["N", "n_max_used"]
            + [f"coupling_{j}{k}" for j, k in coupling_pairs(d)]
            + ["e0_per_atom", "photon_density", "quad"]
            + [f"pop_{j}" for j in range(d)]
            + ["parity", "residual_norm"])


def ed_csv_row(result: EDResult, model: DickeModel) -> list:
    return ([result.n_atoms, result.n_max_used]
            + [repr(float(model.atom.couplings[j, k]))
               for j, k in coupling_pairs(model.atom.d)]
            + [repr(result.e0_per_atom), repr(result.photon_density), repr(result.quad)]
            + [repr(float(p)) for p in result.populations]
            + [repr(result.parity), repr(result.residual_norm)])


def dump_state(path, result: EDResult) -> None:
    """Binary ground-state dump of result.psi0: nonzero coefficients, largest
    magnitude first.

    Layout (npz): indices (int64 basis indices, n_ph*A + atomic_rank),
    coefficients (float64), n_atoms, d, n_max (result.n_max_used).  For a
    model with kappa > 0, n_ph and n_max count the quanta of the Bogoliubov
    mode b that ed_ground solves in (_bogoliubov), not of a.
    """
    psi0 = result.psi0
    nz = np.flatnonzero(psi0)
    order = nz[np.argsort(-np.abs(psi0[nz]), kind="stable")]
    np.savez(path, indices=order.astype(np.int64), coefficients=psi0[order],
             n_atoms=result.n_atoms, d=result.populations.size, n_max=result.n_max_used)
