"""Independent reference values and constructions for the test suite.

Everything here is derived from scratch (closed forms, dense kron-built
matrices, brute-force scans) without importing solver code, so agreement
with the package is a real cross-check and not a tautology.
"""

import dataclasses
import itertools
import math

import numpy as np

# --- two-level closed forms ------------------------------------------------
#
# Variational energy per atom for splitting omega0 and coupling lam:
#   e(x) = omega_eff x^2 + omega0/2 - sqrt(omega0^2/4 + 4 lam^2 x^2)
# Quadratic instability at 4 lam^2 > omega_eff omega0 gives the standard
# second-order critical coupling; above it the stationarity condition
# sqrt(omega0^2/4 + 4 lam^2 x^2) = 2 lam^2 / omega_eff fixes x*.


def two_level_critical(omega: float, omega0: float, kappa: float = 0.0) -> float:
    return math.sqrt((omega + 4.0 * kappa) * omega0) / 2.0


def two_level_x_star(omega: float, omega0: float, lam: float,
                     kappa: float = 0.0) -> float:
    omega_eff = omega + 4.0 * kappa
    x2 = lam**2 / omega_eff**2 - omega0**2 / (16.0 * lam**2)
    return math.sqrt(x2) if x2 > 0 else 0.0


def two_level_e_star(omega: float, omega0: float, lam: float,
                     kappa: float = 0.0) -> float:
    omega_eff = omega + 4.0 * kappa
    x = two_level_x_star(omega, omega0, lam, kappa)
    if x == 0.0:
        return 0.0
    return omega_eff * x**2 + omega0 / 2.0 - math.sqrt(omega0**2 / 4.0 + 4.0 * lam**2 * x**2)


def two_level_energy(omega: float, omega0: float, lam: float, x, kappa: float = 0.0):
    x = np.asarray(x, dtype=float)
    omega_eff = omega + 4.0 * kappa
    return omega_eff * x**2 + omega0 / 2.0 - np.sqrt(omega0**2 / 4.0 + 4.0 * lam**2 * x**2)


# --- ladder closed forms (coupling01 = 0) ------------------------------------
#
# With the 0-level decoupled, the superradiant branch is
#   e_s(x) = omega_eff x^2 + s_bar - sqrt(delta^2 + 4 lam^2 x^2),
# s_bar = (eps1+eps2)/2, delta = (eps2-eps1)/2, competing with e = 0.
# Setting min_x e_s = 0 gives, in terms of S = 2 lam^2/omega_eff,
#   S^2 - 2 s_bar S + delta^2 = 0  =>  S_c = s_bar + sqrt(s_bar^2 - delta^2),
# a level-crossing transition with a finite jump in x.

LADDER_S_BAR = 1.5
LADDER_DELTA = 0.5

# u_c = S_c / 2 and lam_c = sqrt(omega_eff * u_c); frozen for the default
# ladder eps = (0, 1, 2) at omega_eff = 1:
LADDER_U_C = 1.4571067811865475          # (1.5 + sqrt(2 - 0)) / 2 with sqrt(2.25 - 0.25)
LADDER_LAMBDA_C = 1.2071067811865475     # (1 + sqrt(2)) / 2
LADDER_X_JUMP = 1.189207115002721        # 2**0.25, from x^2 = sqrt(2)


def ladder_u_c(s_bar: float = LADDER_S_BAR, delta: float = LADDER_DELTA) -> float:
    return 0.5 * (s_bar + math.sqrt(s_bar**2 - delta**2))


def ladder_critical(omega_eff: float, s_bar: float = LADDER_S_BAR,
                    delta: float = LADDER_DELTA) -> float:
    return math.sqrt(omega_eff * ladder_u_c(s_bar, delta))


def ladder_x_jump(omega_eff: float, s_bar: float = LADDER_S_BAR,
                  delta: float = LADDER_DELTA) -> float:
    s_c = 2.0 * ladder_u_c(s_bar, delta)
    return math.sqrt((s_c**2 - delta**2) / (2.0 * omega_eff * s_c))


def ladder_energy(omega_eff: float, lam12: float, x,
                  s_bar: float = LADDER_S_BAR, delta: float = LADDER_DELTA):
    x = np.asarray(x, dtype=float)
    branch = s_bar - np.sqrt(delta**2 + 4.0 * lam12**2 * x**2)
    return omega_eff * x**2 + np.minimum(0.0, branch)


def ladder_x_star(omega_eff: float, lam12: float,
                  s_bar: float = LADDER_S_BAR, delta: float = LADDER_DELTA) -> float:
    """Order parameter above the ladder transition (0 below)."""
    if lam12 <= ladder_critical(omega_eff, s_bar, delta):
        return 0.0
    s = 2.0 * lam12**2 / omega_eff
    return math.sqrt((s**2 - delta**2)) / (2.0 * lam12)


def ladder_e_star(omega_eff: float, lam12: float,
                  s_bar: float = LADDER_S_BAR, delta: float = LADDER_DELTA) -> float:
    if lam12 <= ladder_critical(omega_eff, s_bar, delta):
        return 0.0
    s = 2.0 * lam12**2 / omega_eff
    return -(s**2 - 2.0 * s_bar * s + delta**2) / (2.0 * s)


# --- brute-force variational scan -------------------------------------------

def grid_minimum(energies, couplings, omega_eff: float, x_max: float,
                 n: int = 200_001) -> tuple[float, float]:
    """(x*, e*) from a dense scan of e(x), built from scratch with eigvalsh."""
    energies = np.asarray(energies, dtype=float)
    couplings = np.asarray(couplings, dtype=float)
    xs = np.linspace(0.0, x_max, n)
    mats = np.diag(energies) + 2.0 * xs[:, None, None] * couplings
    e = omega_eff * xs**2 + np.linalg.eigvalsh(mats)[:, 0]
    i = int(np.argmin(e))
    return float(xs[i]), float(e[i])


def bisect_critical(energy_of_lam_x, lam_lo: float, lam_hi: float,
                    x_max: float, n_grid: int = 4001, tol: float = 1e-9) -> float:
    """Bisect on 'the global minimum of e(lam, x) sits at x > 1e-4'."""
    xs = np.linspace(0.0, x_max, n_grid)

    def superradiant(lam: float) -> bool:
        e = energy_of_lam_x(lam, xs)
        return xs[int(np.argmin(e))] > 1e-4

    assert not superradiant(lam_lo) and superradiant(lam_hi)
    while lam_hi - lam_lo > tol:
        mid = 0.5 * (lam_lo + lam_hi)
        if superradiant(mid):
            lam_hi = mid
        else:
            lam_lo = mid
    return 0.5 * (lam_lo + lam_hi)


# --- dense finite-N references ----------------------------------------------

def rabi_hamiltonian(omega: float, omega0: float, lam: float, n_max: int,
                     kappa: float = 0.0) -> np.ndarray:
    """Single two-level atom + photon mode, built by explicit kron products.

    Operators are squared before truncation (two slack Fock levels, then
    crop), so the boundary rows carry exact matrix elements.
    """
    dim = n_max + 3
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    n = a.T @ a
    x_op = a + a.T
    id_ph = np.eye(dim)
    sz = np.diag([0.0, omega0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    full = (omega * np.kron(n, np.eye(2)) + np.kron(id_ph, sz)
            + lam * np.kron(x_op, sx) + kappa * np.kron(x_op @ x_op, np.eye(2)))
    keep = 2 * (n_max + 1)
    return full[:keep, :keep]


def photon_only_ground(omega: float, kappa: float) -> float:
    """Exact ground energy of omega a'a + kappa (a+a')^2 (Bogoliubov)."""
    return 0.5 * (math.sqrt(omega * (omega + 4.0 * kappa)) - omega)


def holstein_primakoff_energy(omega: float, omega0: float, lam: float,
                              kappa: float = 0.0) -> float:
    """N -> infinity ground energy (not per atom) of the two-level model in
    the normal phase, from the Holstein-Primakoff boson picture.

    To leading order the collective spin is a boson b, and
    H = omega a'a + omega0 b'b + lam (a + a')(b + b') + kappa (a + a')^2.
    In quadratures the squared normal-mode frequencies are the eigenvalues
    of V = [[omega (omega + 4 kappa), 2 lam sqrt(omega omega0)],
    [2 lam sqrt(omega omega0), omega0^2]], so E = (1/2) sum sqrt(eig V)
    - (omega + omega0)/2 (Emary and Brandes, PRE 67, 066203 (2003)).
    Finite-N ED exceeds it by O(1/N).
    """
    c = 2.0 * lam * math.sqrt(omega * omega0)
    v = np.array([[omega * (omega + 4.0 * kappa), c], [c, omega0**2]])
    return 0.5 * float(np.sqrt(np.linalg.eigvalsh(v)).sum()) - 0.5 * (omega + omega0)


def charpoly_min_eig(energies, couplings, x: float) -> float:
    """Smallest eigenvalue of diag(eps) + 2x lam via numpy.roots, d <= 3."""
    m = np.diag(np.asarray(energies, dtype=float)) + 2.0 * x * np.asarray(couplings, dtype=float)
    d = m.shape[0]
    if d == 2:
        tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        roots = np.roots([1.0, -tr, det])
    elif d == 3:
        c2 = -np.trace(m)
        c1 = 0.5 * (np.trace(m)**2 - np.trace(m @ m))
        c0 = -np.linalg.det(m)
        roots = np.roots([1.0, c2, c1, c0])
    else:
        raise ValueError("charpoly route implemented for d <= 3 only")
    return float(np.min(roots.real))


def symmetric_sector_spectrum(n_atoms: int, energies, couplings, omega: float,
                              n_max: int, kappa: float = 0.0) -> np.ndarray:
    """Sorted spectrum of N distinguishable d-level atoms + one photon mode,
    restricted to the permutation-symmetric subspace.

    H = omega a'a + sum_i eps(i) + (a + a') / sqrt(N) sum_{j<k} lam_jk
    sum_i (|j><k| + |k><j|)_i + kappa (a + a')^2, built with explicit kron
    products over the d^N atomic space (operators squared before the photon
    truncation, as in rabi_hamiltonian).  The symmetric subspace is the range
    of the symmetrizer (1/N!) sum over tensor-factor permutations.
    """
    energies = np.asarray(energies, dtype=float)
    couplings = np.asarray(couplings, dtype=float)
    d = energies.size
    D = d**n_atoms

    def on_site(op, i):
        return np.kron(np.kron(np.eye(d**i), op), np.eye(d**(n_atoms - i - 1)))

    h_atoms = sum(on_site(np.diag(energies), i) for i in range(n_atoms))
    jump = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            jump[j, k] = jump[k, j] = couplings[j, k]
    s_x = sum(on_site(jump, i) for i in range(n_atoms))

    dim_ph = n_max + 3
    a = np.diag(np.sqrt(np.arange(1, dim_ph)), 1)
    x_op = a + a.T
    full = (omega * np.kron(a.T @ a, np.eye(D)) + np.kron(np.eye(dim_ph), h_atoms)
            + np.kron(x_op, s_x) / math.sqrt(n_atoms)
            + kappa * np.kron(x_op @ x_op, np.eye(D)))
    keep = (n_max + 1) * D
    full = full[:keep, :keep]

    tensor = np.eye(D).reshape([D] + [d] * n_atoms)
    perms = list(itertools.permutations(range(n_atoms)))
    sym = sum(tensor.transpose([0] + [1 + p for p in perm]).reshape(D, D)
              for perm in perms) / len(perms)
    w, v = np.linalg.eigh(sym)
    q = np.kron(np.eye(n_max + 1), v[:, w > 0.5])
    return np.linalg.eigvalsh(q.T @ full @ q)


def central_slopes(energy, model, h: float) -> dict:
    """Central differences, step h, of energy(m) over the models m that differ
    from model in one parameter: omega, "omega"; kappa where kappa >= h, so
    that it stays >= 0, "kappa"; and each level energy eps_j, j >= 1, so that
    eps_0 stays 0, "eps_j".  By Hellmann-Feynman each is the ground-state
    expectation of that parameter's term in H.
    """
    def slope(vary):
        return (energy(vary(h)) - energy(vary(-h))) / (2 * h)

    slopes = {"omega": slope(lambda t: dataclasses.replace(model, omega=model.omega + t))}
    if model.kappa >= h:
        slopes["kappa"] = slope(lambda t: dataclasses.replace(model, kappa=model.kappa + t))
    for j in range(1, model.atom.d):
        unit = np.eye(model.atom.d)[j]
        slopes[f"eps_{j}"] = slope(lambda t: dataclasses.replace(
            model, atom=dataclasses.replace(model.atom, energies=model.atom.energies + t * unit)))
    return slopes
