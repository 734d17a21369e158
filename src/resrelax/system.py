"""Small-system data model: levels, coupling operators, transition elements.

The system is described in its energy eigenbasis.  Level a has energy
omega_a (hbar = 1 throughout) and the interaction with the reservoir is
mediated by one or more hermitian coupling operators S_i, given as dense
matrices in that basis, with an overall coupling constant g.

Everything downstream is built from the transition matrix elements

    M_ij(a, b) = <a|S_i|b><b|S_j|a>,   omega_ab = omega_a - omega_b,

which enter the free-system correlation function and linear
susceptibility taken in a level |a>:

    C_S_ij(u)   = sum_b Re(M_ij e^{i omega_ab u})
    chi_S_ij(u) = i sum_b Im(M_ij e^{i omega_ab u})

Pairs with omega_ab = 0 (including b = a) carry no oscillation and do
not contribute to rates or shifts; they are excluded from the sums, as
is every pair within the degeneracy tolerance of ``SystemSpec``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTransition,
    DimensionMismatch,
    NonFiniteEnergy,
    NonHermitianCoupling,
    OutOfRange,
)

HERMITICITY_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-9
DEGENERACY_FLOOR_ULPS = 4


class SystemSpec:
    """Energy levels plus coupling operators, checked and sorted.

    Parameters
    ----------
    levels : tuple of (label, energy)
        Eigenstate labels and energies, at least two, with unique labels
        and finite energies.  They are stored sorted by ascending energy
        (ties broken by label).
    coupling_ops : tuple of ndarray
        Hermitian matrices of the coupling operators in the level basis,
        one per reservoir channel.  Each is stored as a complex array,
        permuted to the sorted level order.
    g : float
        Dimensionless coupling constant multiplying the interaction.

    An operator whose largest |S - S^dagger| entry exceeds 1e-12 of its
    largest entry raises NonHermitianCoupling; a wrong shape raises
    DimensionMismatch and a non-finite energy NonFiniteEnergy.
    ``active_pairs`` lists the nondegenerate transition pairs (a, b) and
    ``excluded_pairs`` the rest; a pair counts as degenerate when
    |omega_ab| <= max(1e-9 * (E_max - E_min), 4 ulps of max |E|), a rule
    that a common energy offset leaves as it is.
    """

    __slots__ = ("levels", "coupling_ops", "g", "active_pairs",
                 "excluded_pairs")

    def __init__(self, levels, coupling_ops, g):
        if len(levels) < 2:
            raise ConfigError("need at least two levels, got %d" % len(levels))
        labels = [lab for lab, _ in levels]
        if len(set(labels)) != len(labels):
            raise ConfigError("level labels must be unique: %r" % (labels,))
        energies = [en for _, en in levels]
        if not all(np.isfinite(energies)):
            raise NonFiniteEnergy("non-finite level energy in %r"
                                  % (energies,))
        if not coupling_ops:
            raise ConfigError("at least one coupling operator required")
        if not np.isfinite(g):
            raise ConfigError("coupling constant g must be finite")

        n = len(levels)
        ops = []
        for k, op in enumerate(coupling_ops):
            m = np.asarray(op, dtype=complex)
            if m.shape != (n, n):
                raise DimensionMismatch(
                    "coupling operator %d has shape %r, expected (%d, %d)"
                    % (k, m.shape, n, n)
                )
            if not np.all(np.isfinite(m.view(float))):
                raise ConfigError(
                    "coupling operator %d has non-finite entries" % k)
            deviation = np.max(np.abs(m - m.conj().T))
            largest = np.max(np.abs(m))
            if deviation > HERMITICITY_TOL * largest:
                raise NonHermitianCoupling(
                    "coupling operator %d deviates from hermiticity by %g "
                    "(largest entry %g)" % (k, deviation, largest)
                )
            ops.append(m)

        order = sorted(range(n), key=lambda i: (levels[i][1], levels[i][0]))
        self.levels = tuple((levels[i][0], float(levels[i][1])) for i in order)
        perm = np.array(order)
        self.coupling_ops = tuple(m[np.ix_(perm, perm)] for m in ops)
        self.g = g

        en = [e for _, e in self.levels]
        ulp = math.ulp(max(abs(en[0]), abs(en[-1])))
        tol = max(DEGENERACY_REL_TOL * (en[-1] - en[0]),
                  DEGENERACY_FLOOR_ULPS * ulp)
        active, excluded = [], []
        for a in range(n):
            for b in range(n):
                if a != b:
                    gap = abs(en[a] - en[b])
                    (active if gap > tol else excluded).append((a, b))
        self.active_pairs = tuple(active)
        self.excluded_pairs = tuple(excluded)

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.levels)

    @property
    def energies(self):
        return np.array([en for _, en in self.levels], dtype=float)

    def omega_ab(self, a, b):
        return float(self.levels[a][1] - self.levels[b][1])

    def index_of(self, label):
        for i, (lab, _) in enumerate(self.levels):
            if lab == label:
                return i
        raise ConfigError("unknown level label %r" % (label,))


def two_level_system(omega_0, g):
    """A two-level system.

    Levels sit at -omega_0/2 and +omega_0/2 (labels "-" and "+") and the
    coupling operator is S_2 = i(S_plus - S_minus)/2, whose only matrix
    elements are <+|S_2|-> = i/2 and <-|S_2|+> = -i/2.  omega_0 <= 0
    raises ConfigError.
    """
    if not (omega_0 > 0):
        raise ConfigError("omega_0 must be positive, got %r" % (omega_0,))
    s2 = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    return SystemSpec(
        levels=(("-", -omega_0 / 2.0), ("+", +omega_0 / 2.0)),
        coupling_ops=(s2,),
        g=float(g),
    )


class TransitionElement:
    """Matrix M_ij(a, b) with its transition frequency omega_ab.

    ``strength`` is the diagonal sum Re(sum_i M_ii) = sum_i |<a|S_i|b>|^2,
    the quantity scalar reservoir kernels couple to.
    """

    __slots__ = ("a", "b", "omega_ab", "M")

    def __init__(self, a, b, omega_ab, M):
        self.a = a
        self.b = b
        self.omega_ab = omega_ab
        self.M = M

    @property
    def strength(self):
        return float(np.trace(self.M).real)


def _require_level(spec, a):
    if not 0 <= a < spec.n_levels:
        raise OutOfRange("level index %s is outside 0 .. %d of a %d-level "
                         "system" % (a, spec.n_levels - 1, spec.n_levels))


def transition_elements(spec, a):
    """All nondegenerate transition elements out of level a.

    Returns a list of TransitionElement ordered by partner index b.
    Degenerate partners are skipped; asking for them explicitly via
    ``transition_element`` raises DegenerateTransition.  An index outside
    0 .. n_levels - 1 raises OutOfRange.
    """
    _require_level(spec, a)
    out = []
    for (aa, b) in spec.active_pairs:
        if aa != a:
            continue
        out.append(transition_element(spec, a, b))
    return out


def transition_element(spec, a, b):
    _require_level(spec, a)
    _require_level(spec, b)
    if (a, b) in spec.excluded_pairs:
        raise DegenerateTransition(
            "pair (%d, %d) is degenerate (|omega_ab| below tolerance)" % (a, b)
        )
    if a == b:
        raise DegenerateTransition("pair (%d, %d) has omega_ab = 0" % (a, b))
    n_ops = len(spec.coupling_ops)
    M = np.empty((n_ops, n_ops), dtype=complex)
    for i in range(n_ops):
        for j in range(n_ops):
            M[i, j] = spec.coupling_ops[i][a, b] * spec.coupling_ops[j][b, a]
    return TransitionElement(a=a, b=b, omega_ab=spec.omega_ab(a, b), M=M)


def system_spectral_functions(spec, a, u):
    """Free-system correlation function and susceptibility in level a.

    Parameters
    ----------
    spec : SystemSpec
    a : int
        Level index (after canonical sorting).
    u : float or ndarray
        Proper-time difference(s).

    Returns
    -------
    (C_S, chi_S) : complex ndarrays of shape ops x ops (x len(u))
        C_S_ij(u) = sum_b Re(M_ij e^{i omega_ab u}) and
        chi_S_ij(u) = i sum_b Im(M_ij e^{i omega_ab u}), the sums
        running over nondegenerate partners b only.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    n_ops = len(spec.coupling_ops)
    C = np.zeros((n_ops, n_ops, u_arr.size), dtype=complex)
    X = np.zeros((n_ops, n_ops, u_arr.size), dtype=complex)
    for elem in transition_elements(spec, a):
        phase = np.exp(1j * elem.omega_ab * u_arr)
        prod = elem.M[:, :, None] * phase[None, None, :]
        C += prod.real
        X += 1j * prod.imag
    if np.isscalar(u) or np.ndim(u) == 0:
        return C[:, :, 0], X[:, :, 0]
    return C, X
