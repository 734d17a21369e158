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
not contribute to rates or shifts; they are excluded from the sums.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTransition,
    DimensionMismatch,
    NonFiniteEnergy,
    NonHermitianCoupling,
)

HERMITICITY_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-9


class SystemSpec:
    """Energy levels plus coupling operators.

    Parameters
    ----------
    levels : tuple of (label, energy)
        Eigenstate labels and energies.  ``validate_system`` sorts them
        by ascending energy (ties broken by label).
    coupling_ops : tuple of ndarray
        Hermitian matrices of the coupling operators in the level basis,
        one per reservoir channel.
    g : float
        Dimensionless coupling constant multiplying the interaction.
    """

    __slots__ = ("levels", "coupling_ops", "g", "active_pairs",
                 "excluded_pairs")

    def __init__(self, levels, coupling_ops, g, active_pairs=None,
                 excluded_pairs=None):
        self.levels = levels
        self.coupling_ops = coupling_ops
        self.g = g
        self.active_pairs = active_pairs
        self.excluded_pairs = excluded_pairs

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.levels)

    @property
    def energies(self):
        return np.array([en for _, en in self.levels], dtype=float)

    def omega(self, a):
        return float(self.levels[a][1])

    def omega_ab(self, a, b):
        return float(self.levels[a][1] - self.levels[b][1])

    def index_of(self, label):
        for i, (lab, _) in enumerate(self.levels):
            if lab == label:
                return i
        raise ConfigError("unknown level label %r" % (label,))

    @property
    def validated(self):
        return self.active_pairs is not None


def two_level_system(omega_0, g):
    """A validated two-level system.

    Levels sit at -omega_0/2 and +omega_0/2 (labels "-" and "+") and the
    coupling operator is S_2 = i(S_plus - S_minus)/2, whose only matrix
    elements are <+|S_2|-> = i/2 and <-|S_2|+> = -i/2.  omega_0 <= 0
    raises ConfigError.
    """
    if not (omega_0 > 0):
        raise ConfigError("omega_0 must be positive, got %r" % (omega_0,))
    s2 = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    spec = SystemSpec(
        levels=(("-", -omega_0 / 2.0), ("+", +omega_0 / 2.0)),
        coupling_ops=(s2,),
        g=float(g),
    )
    return validate_system(spec)


def validate_system(spec: SystemSpec) -> SystemSpec:
    """Check a SystemSpec and return it in canonical sorted form.

    Checks: finite energies, unique labels, square hermitian coupling
    operators matching the level count.  Levels are sorted ascending in
    energy (ties broken by label) and the operators are permuted to
    match.  The returned spec carries the list of nondegenerate
    transition pairs; a pair (a, b) counts as degenerate when
    |omega_ab| <= 1e-9 * max_a |omega_a|.
    """
    if len(spec.levels) < 2:
        raise ConfigError("need at least two levels, got %d" % len(spec.levels))
    labels = [lab for lab, _ in spec.levels]
    if len(set(labels)) != len(labels):
        raise ConfigError("level labels must be unique: %r" % (labels,))
    energies = [en for _, en in spec.levels]
    if not all(np.isfinite(energies)):
        raise NonFiniteEnergy("non-finite level energy in %r" % (energies,))
    if not spec.coupling_ops:
        raise ConfigError("at least one coupling operator required")
    if not np.isfinite(spec.g):
        raise ConfigError("coupling constant g must be finite")

    n = len(spec.levels)
    ops = []
    for k, op in enumerate(spec.coupling_ops):
        m = np.asarray(op, dtype=complex)
        if m.shape != (n, n):
            raise DimensionMismatch(
                "coupling operator %d has shape %r, expected (%d, %d)"
                % (k, m.shape, n, n)
            )
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("coupling operator %d has non-finite entries" % k)
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise NonHermitianCoupling(
                "coupling operator %d deviates from hermiticity by %g"
                % (k, np.max(np.abs(m - m.conj().T)))
            )
        ops.append(m)

    order = sorted(range(n), key=lambda i: (spec.levels[i][1], spec.levels[i][0]))
    levels = tuple((spec.levels[i][0], float(spec.levels[i][1])) for i in order)
    perm = np.array(order)
    ops = tuple(m[np.ix_(perm, perm)] for m in ops)

    omega_scale = max(abs(en) for _, en in levels)
    tol = DEGENERACY_REL_TOL * omega_scale
    active, excluded = [], []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if abs(levels[a][1] - levels[b][1]) <= tol:
                excluded.append((a, b))
            else:
                active.append((a, b))
    return SystemSpec(levels, ops, spec.g, active_pairs=tuple(active),
                      excluded_pairs=tuple(excluded))


def ensure_validated(spec: SystemSpec) -> SystemSpec:
    return spec if spec.validated else validate_system(spec)


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
        # M_ij(a,b) = conj(M_ji(a,b)) holds for hermitian S_i; guard anyway.
        if np.max(np.abs(self.M - self.M.conj().T)) > 1e-10 * max(
            1.0, np.max(np.abs(self.M))
        ):
            raise ConfigError("transition element matrix lost hermiticity")

    @property
    def strength(self):
        return float(np.trace(self.M).real)


def transition_elements(spec, a):
    """All nondegenerate transition elements out of level a.

    Returns a list of TransitionElement ordered by partner index b.
    Degenerate partners are skipped; asking for them explicitly via
    ``transition_element`` raises DegenerateTransition.
    """
    spec = ensure_validated(spec)
    out = []
    for (aa, b) in spec.active_pairs:
        if aa != a:
            continue
        out.append(transition_element(spec, a, b))
    return out


def transition_element(spec, a, b):
    spec = ensure_validated(spec)
    if (a, b) in (spec.excluded_pairs or ()):
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
    spec = ensure_validated(spec)
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
