"""Model definitions for N identical d-level atoms coupled to one photon mode.

Hamiltonian convention (used identically by every solver in this package):

    H = omega a'a  +  sum_i sum_j eps_j |j><j|_i
        + (1/sqrt(N)) (a + a') sum_i sum_{j<k} lam_jk (|j><k|_i + |k><j|_i)
        + kappa (a + a')^2

Level energies are measured from the ground level, eps_0 = 0, and the
coupling matrix lam is real symmetric with zero diagonal.  The 1/sqrt(N)
scaling makes the energy per atom finite in the thermodynamic limit.

The rules every layer shares are stated once here: coupling_pair checks a
(j, k) coupling pair, trk_kappa_min gives the ground-transition TRK bound,
config_keys checks the keys of a config mapping, and one check_* function
per model field (check_energies, check_couplings, check_omega, check_kappa,
check_n_atoms) checks its value, for the constructors and, through
config_rule, at that field's path for model_from_dict.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError


def coupling_pair(pair, d: int) -> tuple[int, int]:
    """The off-diagonal pair (j, k) of a d-level atom as (min, max).

    Raises ValueError naming the pair when an index is not an integer (a
    bool or an integral float included; numpy integers are fine), when
    j == k, or when an index is outside [0, d); a negative index is never
    wrapped.
    """
    j, k = pair
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (j, k)):
        raise ValueError(f"coupling pair ({j!r}, {k!r}): level indices must be integers")
    j, k = int(j), int(k)
    if j == k:
        raise ValueError(f"coupling pair ({j}, {k}) is diagonal; the levels must differ")
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"coupling pair ({j}, {k}): level index out of range for d={d}")
    return (min(j, k), max(j, k))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def check_energies(energies) -> np.ndarray:
    """The level energies as a read-only array: 1d, at least 2 levels, all
    finite, the first 0 and the rest ascending; else ValueError."""
    energies = _frozen_array(energies)
    if energies.ndim != 1 or energies.size < 2:
        raise ValueError("energies must be a 1d sequence with at least 2 levels")
    if not np.isfinite(energies).all():
        raise ValueError("energies must be finite")
    if energies[0] != 0.0:
        raise ValueError("energies[0] must be 0 (ground level sets the zero)")
    if np.any(np.diff(energies) < 0):
        raise ValueError("energies must be sorted ascending")
    return energies


def check_couplings(couplings, d: int) -> np.ndarray:
    """The coupling matrix of a d-level atom as a read-only array: (d, d),
    finite, zero diagonal and symmetric; else ValueError."""
    couplings = _frozen_array(couplings)
    if couplings.shape != (d, d):
        raise ValueError(f"couplings must have shape ({d}, {d}), got {couplings.shape}")
    if not np.isfinite(couplings).all():
        raise ValueError("couplings must be finite")
    if np.any(np.diag(couplings) != 0.0):
        raise ValueError("couplings must have zero diagonal")
    ij = np.argwhere(couplings != couplings.T)
    if ij.size:
        j, k = ij[0]
        raise ValueError(f"couplings must be symmetric, mismatch at ({j}, {k})")
    return couplings


@dataclass(frozen=True)
class AtomSpec:
    """Level energies and transition couplings of a single d-level atom.

    energies : ascending, energies[0] == 0, length d >= 2 (check_energies)
    couplings : real symmetric (d, d) matrix, zero diagonal; entry (j, k)
        is the coupling strength of the j <-> k transition to the photon
        (check_couplings).

    Two atoms are equal when their arrays are, and hash alike then (-0.0
    and 0.0 included), so a model can key a cache.
    """

    energies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", check_energies(self.energies))
        object.__setattr__(self, "couplings", check_couplings(self.couplings, self.d))

    def __eq__(self, other):
        return (isinstance(other, AtomSpec) and np.array_equal(self.energies, other.energies)
                and np.array_equal(self.couplings, other.couplings))

    def __hash__(self):
        return hash((tuple(self.energies.tolist()), tuple(self.couplings.ravel().tolist())))

    @property
    def d(self) -> int:
        return self.energies.size

    def coupling(self, j: int, k: int) -> float:
        return float(self.couplings[j, k])

    def with_couplings(self, updates: Mapping[tuple[int, int], float]) -> "AtomSpec":
        """Return a copy with the given (j, k) couplings replaced (symmetrically);
        each pair is checked by coupling_pair."""
        lam = np.array(self.couplings)
        for pair, value in updates.items():
            j, k = coupling_pair(pair, self.d)
            lam[j, k] = lam[k, j] = value
        return AtomSpec(self.energies, lam)


def check_omega(omega) -> float:
    """omega as a float; ValueError unless it is positive and finite."""
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if not omega > 0:
        raise ValueError("omega must be positive")
    return float(omega)


def check_kappa(kappa) -> float:
    """kappa as a float; ValueError unless it is nonnegative and finite."""
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return float(kappa)


def check_n_atoms(n_atoms) -> int:
    """n_atoms as an int; ValueError unless it is a positive integer."""
    if int(n_atoms) != n_atoms or n_atoms < 1:
        raise ValueError("n_atoms must be a positive integer")
    return int(n_atoms)


@dataclass(frozen=True)
class DickeModel:
    """One photon mode (frequency omega) coupled to n_atoms copies of atom.

    kappa is the strength of the diamagnetic (a + a')^2 term.  Each field's
    rule is its check_* function.
    """

    omega: float
    atom: AtomSpec
    n_atoms: int = 1
    kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "omega", check_omega(self.omega))
        object.__setattr__(self, "kappa", check_kappa(self.kappa))
        object.__setattr__(self, "n_atoms", check_n_atoms(self.n_atoms))

    @property
    def omega_eff(self) -> float:
        """Photon stiffness omega + 4 kappa seen by the mean-field quadratic term."""
        return self.omega + 4.0 * self.kappa

    def with_couplings(self, updates: Mapping[tuple[int, int], float]) -> "DickeModel":
        return dataclasses.replace(self, atom=self.atom.with_couplings(updates))

    def with_kappa(self, kappa: float) -> "DickeModel":
        return dataclasses.replace(self, kappa=kappa)

    def with_n_atoms(self, n_atoms: int) -> "DickeModel":
        return dataclasses.replace(self, n_atoms=n_atoms)


def two_level(omega: float, omega0: float, coupling: float,
              kappa: float = 0.0, n_atoms: int = 1) -> DickeModel:
    """Standard two-level Dicke model with level splitting omega0."""
    atom = AtomSpec([0.0, omega0], [[0.0, coupling], [coupling, 0.0]])
    return DickeModel(omega, atom, n_atoms=n_atoms, kappa=kappa)


def ladder(omega: float, eps1: float, eps2: float, coupling01: float,
           coupling12: float, kappa: float = 0.0, n_atoms: int = 1) -> DickeModel:
    """Three-level chain 0-1-2 with no direct 0 <-> 2 coupling."""
    atom = AtomSpec(
        [0.0, eps1, eps2],
        [[0.0, coupling01, 0.0],
         [coupling01, 0.0, coupling12],
         [0.0, coupling12, 0.0]],
    )
    return DickeModel(omega, atom, n_atoms=n_atoms, kappa=kappa)


def single_atom_matrices(energies: np.ndarray, couplings: np.ndarray, x) -> np.ndarray:
    """Single-atom Hamiltonians diag(eps) + 2 x lam, broadcast over x.

    x has shape (...) and couplings (..., d, d); the result has the
    broadcast shape (..., d, d).  Every solver builds the matrix here.
    """
    return np.diag(energies) + (2.0 * np.asarray(x)[..., None, None]) * couplings


@dataclass(frozen=True)
class TrkReport:
    """Ground-transition oscillator-strength bound on the diamagnetic term.

    kappa_min = lam_01^2 / eps_1 is the two-level no-go threshold: a model
    with kappa >= kappa_min cannot develop the 0 <-> 1 instability.  The
    bound says nothing about transitions among excited levels, so those are
    listed as unconstrained.
    """

    kappa_min: float
    kappa_saturates_ground: bool
    unconstrained_transitions: tuple[tuple[int, int], ...]


def trk_kappa_min(lam01, eps1: float):
    """The TRK bound kappa_min = lam01^2 / eps1 of the 0 <-> 1 transition;
    lam01 may be a scalar or an array.  ValueError when eps1 == 0."""
    if eps1 == 0.0:
        raise ValueError("degenerate ground transition")
    return lam01 ** 2 / eps1


def trk_report(model: DickeModel) -> TrkReport:
    atom = model.atom
    kappa_min = trk_kappa_min(atom.coupling(0, 1), float(atom.energies[1]))
    unconstrained = tuple(
        (j, k)
        for j in range(1, atom.d)
        for k in range(j + 1, atom.d)
        if atom.couplings[j, k] != 0.0
    )
    # 4 ulp slack so kappa = lam01**2/eps1 computed in floats still counts
    slack = 4.0 * float(np.spacing(kappa_min))
    return TrkReport(
        kappa_min=float(kappa_min),
        kappa_saturates_ground=bool(model.kappa >= kappa_min - slack),
        unconstrained_transitions=unconstrained,
    )


# ---------------------------------------------------------------------------
# declarative model documents
#
# {"omega": 1.0, "kappa": 0.0, "n_atoms": 1, "ladder": false,
#  "atom": {"energies": [0, 1, 2], "couplings": [[...], ...]}}
#
# couplings are nested rows, d rows of d values.  config_keys is the one
# key check of every config mapping, here and in the CLI: unknown keys and
# absent required ones alike.
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"omega", "kappa", "n_atoms", "atom", "ladder"}
_ATOM_KEYS = ("energies", "couplings")


def config_keys(doc, allowed, path: str, required=()) -> None:
    """ConfigError unless doc is a mapping whose keys are all in allowed and
    include every key of required; required is checked in the order given."""
    if not isinstance(doc, Mapping):
        raise ConfigError(path, "expected a mapping")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required key")


def config_rule(path: str, rule, *args, **kwargs):
    """rule(*args, **kwargs), a library function that owns a rule on a config
    field; its ValueError becomes a ConfigError at path, message unchanged."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def config_number(value, path: str) -> float:
    """A finite JSON number (bool excluded) as a float, else ConfigError at path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def config_int(value, path: str, *, minimum: int | None = None,
               maximum: int | None = None) -> int:
    """A JSON integer (bool excluded) inside the float range (config_number)
    and within [minimum, maximum] where given, else ConfigError at path."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    config_number(value, path)
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be at most {maximum}")
    return value


def config_numbers(value, path: str) -> list[float]:
    """A JSON list of finite numbers; element errors name path[i]."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return [config_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def model_from_dict(doc: Mapping, path: str = "model") -> DickeModel:
    """Build a DickeModel from a plain dict, reporting errors by field path."""
    config_keys(doc, _MODEL_KEYS, path, required=("atom",))
    atom_doc = doc["atom"]
    config_keys(atom_doc, _ATOM_KEYS, f"{path}.atom", required=_ATOM_KEYS)

    energies = config_numbers(atom_doc["energies"], f"{path}.atom.energies")
    d = len(energies)
    couplings = atom_doc["couplings"]
    cpath = f"{path}.atom.couplings"
    if not isinstance(couplings, (list, tuple)) or len(couplings) != d:
        raise ConfigError(cpath, f"expected a list of {d} rows")
    for i, row in enumerate(couplings):
        if len(config_numbers(row, f"{cpath}[{i}]")) != d:
            raise ConfigError(f"{cpath}[{i}]", f"expected {d} entries")

    omega = config_number(doc.get("omega", 1.0), f"{path}.omega")
    kappa = config_number(doc.get("kappa", 0.0), f"{path}.kappa")
    n_atoms = config_int(doc.get("n_atoms", 1), f"{path}.n_atoms")

    # each value rule at its own field, in the order the constructors check them
    atom = AtomSpec(config_rule(f"{path}.atom.energies", check_energies, energies),
                    config_rule(cpath, check_couplings, couplings, d))
    model = DickeModel(config_rule(f"{path}.omega", check_omega, omega), atom,
                       kappa=config_rule(f"{path}.kappa", check_kappa, kappa),
                       n_atoms=config_rule(f"{path}.n_atoms", check_n_atoms, n_atoms))

    if "ladder" in doc:
        flag = doc["ladder"]
        if not isinstance(flag, bool):
            raise ConfigError(f"{path}.ladder", "expected a boolean")
        if flag:
            if atom.d != 3:
                raise ConfigError(f"{path}.ladder", "ladder models must have exactly 3 levels")
            if atom.couplings[0, 2] != 0.0:
                raise ConfigError(f"{path}.atom.couplings", "ladder models require coupling (0, 2) == 0")
    return model
