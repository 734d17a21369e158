"""Independent reference values for the test suite.

Everything in this module is computed from closed forms, from
scipy.integrate or from mpmath, never from the package's own engine, so a
bug in the engine cannot cancel out of a comparison.  The closed forms
were derived and cross-checked against brute-force scipy quadrature
before the engine was written; the quad-based helpers allow re-deriving
them on demand inside the tests.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2


# ---------------------------------------------------------------------------
# closed-form rate coefficients

def inertial_gamma(omega, g=1.0):
    """Both rate coefficients of the unaccelerated vacuum: g^2 w / (8 pi)."""
    return g * g * abs(omega) / (8.0 * math.pi)


def accelerated_gamma_rf(omega, acceleration, g=1.0):
    """Fluctuation coefficient on a uniformly accelerated worldline."""
    w = abs(omega)
    return g * g * w / (8.0 * math.pi) / math.tanh(math.pi * w / acceleration)


def unruh_ratio(omega_0, acceleration):
    """A_up / A_down for the accelerated vacuum: the Planck factor."""
    return math.exp(-TWO_PI * omega_0 / acceleration)


def thermal_gamma_rf(omega, eta, omega_j, temperature, g=1.0, eps=0.0):
    w = abs(omega)
    base = 0.5 * math.pi * g * g * eta * w * math.exp(-w / omega_j - eps * w)
    if temperature == 0.0:
        return base
    return base / math.tanh(0.5 * w / temperature)


def thermal_gamma_sr(omega, eta, omega_j, g=1.0, eps=0.0):
    w = abs(omega)
    return 0.5 * math.pi * g * g * eta * w * math.exp(-w / omega_j - eps * w)


def thermal_sr_beyond_cutoff(pole, eta, omega_j, omega_c, g=1.0):
    """int_{|w| > omega_c} gamma_sr(w) / (w - pole) dw, odd gamma_sr.

    Folding w < -omega_c onto w > omega_c gives gamma_sr(w) [1/(w - p) +
    1/(w + p)], and with the ohmic spectrum
    int_wc^inf w e^{-w/wj} / (w - p) dw = wj e^{-wc/wj}
    + p e^{-p/wj} E1((wc - p) / wj) for |p| < wc (50-digit mpmath).
    """
    with mpmath.workdps(50):
        wj, wc = mpmath.mpf(omega_j), mpmath.mpf(omega_c)

        def piece(p):
            p = mpmath.mpf(p)
            return (wj * mpmath.exp(-wc / wj)
                    + p * mpmath.exp(-p / wj) * mpmath.e1((wc - p) / wj))

        return float(g * g * mpmath.pi / 2 * eta
                     * (piece(pole) + piece(-pole)))


def unruh_excess_rf_beyond_cutoff(pole, acceleration, omega_c, g=1.0):
    """int_{|w| > omega_c} gamma_rf(w) / (w - pole) dw of the Unruh excess.

    gamma_rf(w) = g^2 (|w| / 4 pi) / expm1(2 pi |w| / a) is even, so the
    fold gives int_wc^inf gamma_rf(w) 2 p / (w^2 - p^2) dw (50-digit mpmath
    quadrature on octaves of the thermal scale a / 2 pi).
    """
    with mpmath.workdps(50):
        a, wc, p = (mpmath.mpf(v) for v in (acceleration, omega_c, pole))

        def f(w):
            return (w / (4 * mpmath.pi) / mpmath.expm1(2 * mpmath.pi * w / a)
                    * 2 * p / (w * w - p * p))

        scale = a / (2 * mpmath.pi)
        pts = [wc] + [wc + scale * 2 ** k for k in range(-8, 8)] + [mpmath.inf]
        return float(g * g * mpmath.quad(f, pts))


def thermal_ratio(omega_0, temperature):
    """Detailed-balance ratio e^{-omega_0 / T}."""
    return math.exp(-omega_0 / temperature)


def mp_gammas(model, omega, g=1.0, **params):
    """(gamma_rf, gamma_sr) at |omega| as mpmath numbers (50 digits).

    The same closed forms as above, evaluated from the double inputs in
    arbitrary precision, with their omega -> 0 limits.
    """
    with mpmath.workdps(50):
        w = abs(mpmath.mpf(omega))
        g2 = mpmath.mpf(g) ** 2
        if model == "inertial_vacuum":
            gamma = w / (8 * mpmath.pi)
            return g2 * gamma, g2 * gamma
        if model == "accelerated_vacuum":
            a = mpmath.mpf(params["acceleration"])
            sr = w / (8 * mpmath.pi)
            rf = a / (8 * mpmath.pi ** 2) if w == 0 else \
                sr * mpmath.coth(mpmath.pi * w / a)
            return g2 * rf, g2 * sr
        if model == "thermal_ohmic":
            eta = mpmath.mpf(params["eta"])
            damp = mpmath.exp(-w / mpmath.mpf(params["omega_j"]))
            t = mpmath.mpf(params["temperature"])
            sr = mpmath.pi / 2 * eta * w * damp
            if t == 0:
                rf = sr
            elif w == 0:
                rf = mpmath.pi * eta * t * damp
            else:
                rf = sr * mpmath.coth(w / (2 * t))
            return g2 * rf, g2 * sr
    raise ValueError("no closed form for %r" % model)


# ---------------------------------------------------------------------------
# closed-form energy shifts (sharp frequency window at omega_c)

def inertial_shift_rf_upper(omega_0, omega_c, g=1.0):
    """Upper-level rf shift; (wc - w0)(wc + w0) keeps wc^2 - w0^2 exact
    where a cutoff just above the transition would cancel it."""
    return -(g * g * omega_0 / (32.0 * math.pi ** 2)) * math.log(
        (omega_c - omega_0) * (omega_c + omega_0) / omega_0 ** 2
    )


def inertial_shift_rf_upper_mp(omega_0, omega_c, g=1.0):
    """inertial_shift_rf_upper in 50-digit mpmath."""
    with mpmath.workdps(50):
        w0, wc = mpmath.mpf(omega_0), mpmath.mpf(omega_c)
        return float(-(mpmath.mpf(g) ** 2 * w0 / (32 * mpmath.pi ** 2))
                     * mpmath.log((wc * wc - w0 * w0) / (w0 * w0)))


def inertial_shift_sr(omega_0, omega_c, g=1.0):
    """Back-reaction shift; identical for both levels."""
    return (g * g / (32.0 * math.pi ** 2)) * (
        -2.0 * omega_c
        + omega_0 * math.log((omega_c + omega_0) / (omega_c - omega_0))
    )


def ring_mp(omega_c, u):
    """(cs, ca) ring pieces of the vacuum kernel windowed at omega_c.

    cs = (cos th + th sin th - 1) / (4 pi^2 u^2) and
    ca = (th cos th - sin th) / (4 pi^2 u^2), th = omega_c u, in 50-digit
    arithmetic, which absorbs the cancellation at small th.
    """
    with mpmath.workdps(50):
        u = mpmath.mpf(u)
        th = mpmath.mpf(omega_c) * u
        den = 4 * mpmath.pi ** 2 * u * u
        cs = (mpmath.cos(th) + th * mpmath.sin(th) - 1) / den
        ca = (th * mpmath.cos(th) - mpmath.sin(th)) / den
        return float(cs), float(ca)


def accelerated_cs(acceleration, u):
    """Cs of the accelerated vacuum kernel at eps = 0,
    -(a^2 / 16 pi^2) / sinh^2(a u / 2), u != 0 (50-digit mpmath)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(acceleration)
        x = a * mpmath.mpf(u) / 2
        return float(-(a * a / (16 * mpmath.pi ** 2)) / mpmath.sinh(x) ** 2)


def unruh_excess_cs(acceleration, u):
    """Cs of the accelerated minus the inertial vacuum kernel at eps = 0,
    (a^2 / 16 pi^2)(1/x^2 - 1/sinh^2 x) with x = a u / 2, and its limit
    a^2 / 48 pi^2 at u = 0 (50-digit mpmath)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(acceleration)
        x = a * mpmath.mpf(u) / 2
        if x == 0:
            return float(a * a / (48 * mpmath.pi ** 2))
        return float(a * a / (16 * mpmath.pi ** 2)
                     * (1 / (x * x) - 1 / mpmath.sinh(x) ** 2))


def ci_mp(x):
    """Cosine integral Ci(x) = -int_x^inf cos(t)/t dt, x > 0 (mpmath)."""
    with mpmath.workdps(50):
        return float(mpmath.ci(mpmath.mpf(x)))


def inertial_lamb(omega_0, omega_c, g=1.0):
    """Shift of the level splitting: twice the rf upper-level shift."""
    return -(g * g * omega_0 / (16.0 * math.pi ** 2)) * math.log(
        (omega_c ** 2 - omega_0 ** 2) / omega_0 ** 2
    )


def const_gamma_lamb(gamma, omega_0, omega_c):
    """Splitting shift when gamma^rf(w) is a constant."""
    return (gamma / TWO_PI) * math.log((omega_c + omega_0) / (omega_c - omega_0))


# ---------------------------------------------------------------------------
# Lorentzian Hilbert pair (dispersion-engine oracle)

def lorentz_imag(w, eta, w0=0.0):
    w = np.asarray(w, dtype=float)
    return -eta / ((w - w0) ** 2 + eta * eta)


def lorentz_real(w, eta, w0=0.0):
    w = np.asarray(w, dtype=float)
    return (w - w0) / ((w - w0) ** 2 + eta * eta)


# ---------------------------------------------------------------------------
# scipy-quadrature transforms

def quad_cos_transform(f, omega, upper, **kw):
    """integral_0^upper f(u) cos(omega u) du via scipy's weighted quad."""
    kw.setdefault("limit", 800)
    if omega == 0.0:
        val, err = integrate.quad(f, 0.0, upper, **kw)
        return val, err
    val, err = integrate.quad(f, 0.0, upper, weight="cos", wvar=omega, **kw)
    return val, err


def quad_sin_transform(f, omega, upper, **kw):
    kw.setdefault("limit", 800)
    if omega == 0.0:
        return 0.0, 0.0
    val, err = integrate.quad(f, 0.0, upper, weight="sin", wvar=omega, **kw)
    return val, err


def quad_gamma_rf(kernel_cs, omega, g, upper, **kw):
    val, err = quad_cos_transform(kernel_cs, abs(omega), upper, **kw)
    return g * g * val, g * g * err


def quad_gamma_sr(kernel_ca, omega, g, upper, **kw):
    val, err = quad_sin_transform(kernel_ca, abs(omega), upper, **kw)
    return -g * g * val, g * g * err


def exp_transform(a, omega, upper, kind):
    """int_0^upper e^{-a u} {cos, sin}(omega u) du, in closed form (mpmath)."""
    with mpmath.workdps(30):
        a, w, u = mpmath.mpf(a), mpmath.mpf(omega), mpmath.mpf(upper)
        damp = mpmath.exp(-a * u)
        c, s = mpmath.cos(w * u), mpmath.sin(w * u)
        if kind == "cos":
            value = a - damp * (a * c - w * s)
        else:
            value = w - damp * (a * s + w * c)
        return float(value / (a * a + w * w))


def inverse_square_cos(omega, upper):
    """int_0^upper cos(omega u) / (1 + u)^2 du, by sine and cosine
    integrals (mpmath).

    With t = 1 + u and T = 1 + upper it is cos(w) A + sin(w) B, where
    A = int_1^T cos(w t) / t^2 dt = cos w - cos(w T) / T
        - w (Si(w T) - Si(w)) and
    B = int_1^T sin(w t) / t^2 dt = sin w - sin(w T) / T
        + w (Ci(w T) - Ci(w)).
    """
    with mpmath.workdps(30):
        w, t = mpmath.mpf(omega), 1 + mpmath.mpf(upper)
        if w == 0:
            return float(1 - 1 / t)
        a = (mpmath.cos(w) - mpmath.cos(w * t) / t
             - w * (mpmath.si(w * t) - mpmath.si(w)))
        b = (mpmath.sin(w) - mpmath.sin(w * t) / t
             + w * (mpmath.ci(w * t) - mpmath.ci(w)))
        return float(mpmath.cos(w) * a + mpmath.sin(w) * b)


def quad_pv(h, pole, lo, hi, **kw):
    """Principal value of integral h(x)/(x - pole) dx via weight='cauchy'."""
    kw.setdefault("limit", 400)
    val, err = integrate.quad(h, lo, hi, weight="cauchy", wvar=pole, **kw)
    return val, err


# ---------------------------------------------------------------------------
# finite-difference rate-kernel oracle
#
# The per-transition coefficient is defined through a proper-time
# derivative of the system part of the integrand.  The oracle below
# implements that derivative as a central difference at finite h, not as
# the analytic derivative, so it checks the assembled engine (kernel
# evaluation, transform, prefactor wiring) through a different route.
# Each shifted trig factor is split by the exact identities
#   sin(w(u±h)) = sin(wu)cos(wh) ± cos(wu)sin(wh)
#   cos(w(u±h)) = cos(wu)cos(wh) ∓ sin(wu)sin(wh)
# so that QUADPACK's Fourier method integrates each piece over the full
# half line; plain truncated quadrature cannot reach the needed accuracy
# for kernels with power-law tails.

def _fourier_parts(part_fn, omega):
    # QAWF wants a positive frequency; fold the parity by hand.  Its
    # per-cycle warnings are advisory only: every use here is checked
    # against an independent closed form at the 1e-10 level.
    w = abs(omega)
    opts = dict(limit=400, epsabs=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        sv, se = integrate.quad(part_fn, 0.0, np.inf,
                                weight="sin", wvar=w, **opts)
        cv, ce = integrate.quad(part_fn, 0.0, np.inf,
                                weight="cos", wvar=w, **opts)
    if omega < 0:
        sv = -sv
    return sv, cv, se + ce


def fd_transition_rf(kernel, omega, strength, g, h=1e-6):
    sv, cv, qerr = _fourier_parts(lambda u: kernel.evaluate(u, 0.0)[0], omega)
    plus = sv * math.cos(omega * h) + cv * math.sin(omega * h)
    minus = sv * math.cos(omega * h) - cv * math.sin(omega * h)
    val = strength * (plus - minus) / (2 * h)
    return -2.0 * g * g * val, 2.0 * g * g * strength * qerr / h


def fd_transition_sr(kernel, omega, strength, g, h=1e-6):
    sv, cv, qerr = _fourier_parts(lambda u: kernel.evaluate(u, 0.0)[1], omega)
    plus = cv * math.cos(omega * h) - sv * math.sin(omega * h)
    minus = cv * math.cos(omega * h) + sv * math.sin(omega * h)
    val = strength * (plus - minus) / (2 * h)
    return -2.0 * g * g * val, 2.0 * g * g * strength * qerr / h


# ---------------------------------------------------------------------------
# matrix-exponential oracle for the free system correlation functions

def heisenberg_spectral_functions(energies, ops, state, u):
    """(C_S, chi_S) at proper-time separation u, via explicit expm.

    Free evolution is applied to each coupling operator with
    scipy.linalg.expm; no eigen-decomposition shortcuts.
    """
    from scipy.linalg import expm

    h = np.diag(np.asarray(energies, dtype=float))
    fwd = expm(1j * h * u)
    back = expm(-1j * h * u)
    n = len(ops)
    c_s = np.zeros((n, n), dtype=complex)
    chi_s = np.zeros((n, n), dtype=complex)
    for i, si in enumerate(ops):
        si_u = fwd @ si @ back
        for j, sj in enumerate(ops):
            fwd_prod = (si_u @ sj)[state, state]
            rev_prod = (sj @ si_u)[state, state]
            c_s[i, j] = 0.5 * (fwd_prod + rev_prod)
            chi_s[i, j] = 0.5 * (fwd_prod - rev_prod)
    return c_s, chi_s


# ---------------------------------------------------------------------------
# quadrature rules

def kronrod15():
    """The 7-point Gauss rule and its 15-point Kronrod extension on
    [-1, 1], in 50-digit mpmath.

    Returns rows (node, Kronrod weight, Gauss weight or 0) for the nodes
    >= 0, ascending.  The Gauss nodes are the roots of P7, whose
    coefficients come from Bonnet's recursion.  The eight Kronrod nodes
    added to them are the roots of the Stieltjes polynomial E8: monic,
    even, and orthogonal to x^k P7 for k < 8 (Laurie, Math. Comp. 66
    (1997) 1133).  Each rule's weights solve its even moment equations
    sum_i w_i x_i^(2j) = 2 / (2j + 1).
    """
    with mpmath.workdps(50):
        def moment(j):  # int_{-1}^1 x^j dx
            return mpmath.mpf(2) / (j + 1) if j % 2 == 0 else mpmath.mpf(0)

        # P7 in powers of x: (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}
        prev, p7 = [mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]
        for n in range(1, 7):
            nxt = [mpmath.mpf(0)] + [(2 * n + 1) * c for c in p7]
            for i, c in enumerate(prev):
                nxt[i] -= n * c
            prev, p7 = p7, [c / (n + 1) for c in nxt]

        def p7_moment(j):  # int_{-1}^1 x^j P7(x) dx
            return sum(c * moment(i + j) for i, c in enumerate(p7))

        # E8 = x^8 + sum_m e_m x^(2m); the odd k are the conditions left
        # once parity has removed the even ones
        odd = (1, 3, 5, 7)
        e = mpmath.lu_solve(
            mpmath.matrix([[p7_moment(k + 2 * m) for m in range(4)]
                           for k in odd]),
            mpmath.matrix([-p7_moment(k + 8) for k in odd]))

        def positive_roots(coeffs_in_x2):  # highest power first
            ys = mpmath.polyroots(coeffs_in_x2, maxsteps=200, extraprec=200)
            return [mpmath.sqrt(mpmath.re(y)) for y in ys]

        gauss = [mpmath.mpf(0)] + positive_roots(p7[7:0:-2])
        kronrod = positive_roots([1, e[3], e[2], e[1], e[0]])

        def weights(nodes):  # half-rule weights, node 0 first
            a = mpmath.matrix([[(1 if x == 0 else 2) * x ** (2 * j)
                                for x in nodes] for j in range(len(nodes))])
            b = mpmath.matrix([moment(2 * j) for j in range(len(nodes))])
            return list(mpmath.lu_solve(a, b))

        w_gauss = dict(zip(gauss, weights(gauss)))
        nodes = sorted(gauss + kronrod)
        return [(x, w, w_gauss.get(x, mpmath.mpf(0)))
                for x, w in zip(nodes, weights(nodes))]


def filon15(theta):
    """Filon-type K15 and G7 weights for the oscillation e^{i theta x}
    on [-1, 1], in 50-digit mpmath.

    The weight of a node is int_{-1}^1 l(x) e^{i theta x} dx, where l is
    its Lagrange polynomial on the rule's nodes (kronrod15, mirrored).
    The moments int x^k e^{i theta x} dx come from the power series of
    the exponential, summed with enough guard digits to absorb its
    cancellation, and the weights solve the monomial moment equations.
    Returns (K15 weights, G7 weights) as complex numbers for the 15 and
    the 7 nodes, ascending.
    """
    theta = mpmath.mpf(theta)
    with mpmath.workdps(60 + int(abs(theta))):
        half = [(x, g != 0) for x, _, g in kronrod15()]
        nodes = [(-x, gauss) for x, gauss in half[:0:-1]] + half
        k15 = [x for x, _ in nodes]
        g7 = [x for x, gauss in nodes if gauss]

        def moment(k):  # int_{-1}^1 x^k e^{i theta x} dx
            total, term, n = mpmath.mpc(0), mpmath.mpc(1), 0
            while True:  # term = (i theta)^n / n!
                if (k + n) % 2 == 0:
                    total += term * 2 / (k + n + 1)
                if n > abs(theta) + 10 and abs(term) < mpmath.mpf(10) ** -70:
                    return total
                n += 1
                term *= 1j * theta / n

        def weights(nodes):
            a = mpmath.matrix([[x ** k for x in nodes]
                               for k in range(len(nodes))])
            b = mpmath.matrix([moment(k) for k in range(len(nodes))])
            return [complex(w) for w in mpmath.lu_solve(a, b)]

        return weights(k15), weights(g7)


# ---------------------------------------------------------------------------
# special functions

def trigamma(z):
    """psi_1(z) for complex z, in arbitrary precision (mpmath)."""
    z = complex(z)
    return complex(mpmath.psi(1, mpmath.mpc(z.real, z.imag)))


# ---------------------------------------------------------------------------
# closed-form relaxation dynamics

def mean_energy_closed(gamma_rf, gamma_sr, omega_0, h0, tau):
    h_eq = -0.5 * omega_0 * gamma_sr / gamma_rf
    return h_eq + (h0 - h_eq) * math.exp(-gamma_rf * tau)


def two_level_energy_flux(gamma_rf, gamma_sr, omega_0, h):
    """d<H>/dtau of the two-level system at mean energy h."""
    return -gamma_rf * h - 0.5 * omega_0 * gamma_sr
