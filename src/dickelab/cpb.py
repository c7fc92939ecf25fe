"""Cooper-pair-box spectrum in the charge basis.

H = 4 E_C (n - n_g)^2 - (E_J / 2) sum_n (|n><n+1| + |n+1><n|)

with n running over -n_cut..n_cut Cooper-pair charge states.  At a gate
sweet spot n_g = n + 1/2 the two lowest eigenstates approach the symmetric
and antisymmetric combinations of the degenerate charge pair,
|g> ~ (|n> + |n+1>)/sqrt(2) and |e> ~ (|n> - |n+1>)/sqrt(2), split by E_J,
with charge matrix element |<e|n|g>| -> 1/2.  The splitting stays finite
and gate-independent to first order only in the charge regime E_C >> E_J;
the solver itself is exact for any ratio.

The spectrum is numpy's dense eigh of cpb_hamiltonian, the matrix the tests
inspect, so this module loads numpy only, never scipy.  H is tridiagonal,
but at the default n_cut 12 the dense solve takes no longer than a
tridiagonal one (about 0.05 ms); it costs O(n_cut^3) time and O(n_cut^2)
memory, which N_CUT_MAX bounds.  write_cpb_csv computes each spec's
spectrum once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

N_CUT_MAX = 1000    # dense eigh at dim 2001: 0.7-1.2 s, peak RSS 156 MB above the import
DEG_TOL = 1e-12     # levels closer than this, relative to the spectral scale, coincide
SEPARATION_FACTOR = 3.0   # a third level nearer than this many qubit splittings is flagged


@dataclass(frozen=True)
class CpbSpec:
    ec: float
    ej: float
    ng: float
    n_cut: int = 12

    def __post_init__(self):
        for name in ("ec", "ej", "ng"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.ec > 0:
            raise ValueError("ec must be positive")
        if self.ej < 0:
            raise ValueError("ej must be nonnegative")
        if self.n_cut < 5 + math.ceil(abs(self.ng)):
            raise ValueError(
                f"n_cut must be at least 5 + ceil(|ng|) = {5 + math.ceil(abs(self.ng))}")
        if self.n_cut > N_CUT_MAX:
            raise ValueError(f"n_cut must be at most {N_CUT_MAX}")

    @property
    def dim(self) -> int:
        return 2 * self.n_cut + 1

    @property
    def charges(self) -> np.ndarray:
        return np.arange(-self.n_cut, self.n_cut + 1)


def cpb_hamiltonian(spec: CpbSpec) -> np.ndarray:
    """Dense H: diagonal 4 E_C (n - n_g)^2, off-diagonals -E_J/2.

    The off-diagonals are written into the one (2 n_cut + 1)^2 array, so
    building H allocates H alone.  They hold -E_J/2 + 0.0, which stores
    +0.0 for E_J = 0, as the sum of the three diagonals did.
    """
    n = spec.charges.astype(float)
    h = np.diag(4.0 * spec.ec * (n - spec.ng) ** 2)
    off = -spec.ej / 2.0 + 0.0
    np.fill_diagonal(h[1:], off)
    np.fill_diagonal(h[:, 1:], off)
    return h


def _spectrum(spec: CpbSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of cpb_hamiltonian.

    The columns are made contiguous, as LAPACK writes them: BLAS sums a
    strided dot product in another order than a contiguous one, which would
    move the last digit of the overlaps and the charge matrix element.
    """
    w, v = np.linalg.eigh(cpb_hamiltonian(spec))
    return w, np.asfortranarray(v)


@dataclass(frozen=True)
class SweetSpotReport:
    n: int
    overlap_g: float
    overlap_e: float
    splitting: float
    degenerate_pair: bool


def _sweet_spot(ng: float) -> int | None:
    """n where n_g = n + 1/2 (to 1e-9), else None."""
    n = math.floor(ng)
    return n if abs(ng - n - 0.5) <= 1e-9 else None


def verify_sweet_spot_states(spec: CpbSpec) -> SweetSpotReport:
    """Overlap of the two lowest eigenstates with (|n> +/- |n+1>)/sqrt(2).

    Requires n_g = n + 1/2.  If the lowest two states are degenerate within
    DEG_TOL (E_J = 0), overlaps are taken against the degenerate subspace,
    which lifts the basis ambiguity.  A third state degenerate with the
    pair is an error.
    """
    if _sweet_spot(spec.ng) is None:
        raise ValueError(f"ng = {spec.ng} is not at a sweet spot n + 1/2")
    return _sweet_spot_report(spec, *_spectrum(spec))


def _sweet_spot_report(spec: CpbSpec, w: np.ndarray, v: np.ndarray) -> SweetSpotReport:
    """verify_sweet_spot_states from the spectrum (w, v) of a sweet-spot spec."""
    n = _sweet_spot(spec.ng)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    if w[2] - w[0] <= DEG_TOL * scale:
        raise ValueError("ground-state degeneracy beyond tolerance: "
                         "three or more states coincide at the sweet spot")
    i_n = n + spec.n_cut
    target_g = np.zeros(spec.dim)
    target_e = np.zeros(spec.dim)
    target_g[i_n] = target_g[i_n + 1] = 1.0 / math.sqrt(2.0)
    target_e[i_n] = 1.0 / math.sqrt(2.0)
    target_e[i_n + 1] = -1.0 / math.sqrt(2.0)
    degenerate = bool(w[1] - w[0] <= DEG_TOL * scale)
    if degenerate:
        # any basis of the 2d ground space works; project the targets on it
        sub = v[:, :2]
        overlap_g = float(np.sum((sub.T @ target_g) ** 2))
        overlap_e = float(np.sum((sub.T @ target_e) ** 2))
    else:
        overlap_g = float((v[:, 0] @ target_g) ** 2)
        overlap_e = float((v[:, 1] @ target_e) ** 2)
    return SweetSpotReport(n=n, overlap_g=overlap_g, overlap_e=overlap_e,
                           splitting=float(w[1] - w[0]), degenerate_pair=degenerate)


@dataclass(frozen=True)
class TwoLevelReduction:
    omega0_eff: float
    charge_matrix_element: float
    e_levels: tuple[float, ...]
    near_degenerate: bool


def two_level_reduction(spec: CpbSpec) -> TwoLevelReduction:
    """Effective qubit splitting E_1 - E_0 and charge coupling |<1|n|0>|.

    near_degenerate flags a third level closer than SEPARATION_FACTOR times
    the qubit splitting, where a two-level truncation stops being valid.
    """
    return _reduction(spec, *_spectrum(spec))


def _reduction(spec: CpbSpec, w: np.ndarray, v: np.ndarray) -> TwoLevelReduction:
    """two_level_reduction from the spectrum (w, v) of spec."""
    omega0 = float(w[1] - w[0])
    elem = float(abs(v[:, 1] @ (spec.charges * v[:, 0])))
    near = bool(w[2] - w[1] < SEPARATION_FACTOR * omega0)
    levels = tuple(float(x) for x in w[:4])
    return TwoLevelReduction(omega0_eff=omega0, charge_matrix_element=elem,
                             e_levels=levels, near_degenerate=near)


def write_cpb_csv(path, specs: Sequence[CpbSpec]) -> None:
    """One row per spec: ec, ej, ng, e_level_0..3, overlap_g, overlap_e,
    omega0_eff, charge_matrix_element.  Overlaps are blank off sweet spot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ec", "ej", "ng",
                         "e_level_0", "e_level_1", "e_level_2", "e_level_3",
                         "overlap_g", "overlap_e", "omega0_eff",
                         "charge_matrix_element"])
        for spec in specs:
            w, v = _spectrum(spec)
            red = _reduction(spec, w, v)
            if _sweet_spot(spec.ng) is not None:
                rep = _sweet_spot_report(spec, w, v)
                og, oe = repr(rep.overlap_g), repr(rep.overlap_e)
            else:
                og = oe = ""
            writer.writerow([repr(spec.ec), repr(spec.ej), repr(spec.ng),
                             *[repr(e) for e in red.e_levels],
                             og, oe, repr(red.omega0_eff),
                             repr(red.charge_matrix_element)])
