"""Stationary reservoir correlation kernels.

Each kernel exposes the symmetric and antisymmetric parts of a two-point
function along the probe trajectory,

    Cs(u) = Re W(u),   Ca(u) = Im W(u),

evaluated at proper-time separation u with a short-distance regulator
eps > 0 (the familiar u -> u - i eps prescription).  Cs is even in u and
feeds dissipation of the first kind; Ca is odd and feeds the second.
Physical results are obtained in the limit eps -> 0, handled upstream by
the regulator extrapolation in quadrature.py; a kernel that is regular
at eps = 0 (``epsilon_sensitive = False``) is evaluated there instead.

Implemented models:

``InertialVacuum``
    W(u) = -1 / (4 pi^2 (u - i eps)^2).

``AcceleratedVacuum``
    InertialVacuum plus its UnruhExcess, W(u) = -(a^2/16 pi^2)
    sinh^-2(a u/2) at eps = 0: KMS (thermal) at temperature a / 2 pi.

``ThermalOhmic``
    Ohmic spectral density J(w) = eta w exp(-w/omega_j) at temperature
    T, expressed through the complex trigamma function.

``TabulatedKernel``
    Cubic-spline interpolation of sampled (u, Cs, Ca) data; insensitive
    to eps and bounded to its grid.

``UnruhExcess``
    What acceleration adds to the inertial vacuum at eps = 0: regular at
    u = 0, with the thermal excess of the Unruh spectrum, which decays.

A vacuum kernel adds the ``excess`` of its trajectory (None, or an
UnruhExcess) on every route, the band-limited variant included: the
inertial kernel with its spectrum sharply windowed to |w| < omega_c,
finite at eps = 0, on which the direct shift evaluation is built, plus
the excess, integrated raw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamples,
    OutOfRange,
    SingularEvaluation,
)
from .quadrature import Envelope

FOUR_PI_SQ = 4.0 * math.pi ** 2
# default truncation policy: u_max = OSC_CYCLES / |omega|, clamped to U_CAP
OSC_CYCLES = 2500.0
U_CAP = 25000.0

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# |z| from which the asymptotic series alone is accurate to rounding
_TRIGAMMA_RADIUS = 16.0


def _trigamma_series(z):
    """1/z + 1/2z^2 + sum_k B_2k / z^(2k+1), by Horner in 1/z^2."""
    inv = 1.0 / z
    inv2 = inv * inv
    acc = inv2 * _BERNOULLI[-1]
    for b in _BERNOULLI[-2::-1]:
        acc += b
        acc *= inv2
    acc += 0.5 * inv
    acc += 1.0
    acc *= inv
    return acc


def trigamma_complex(z):
    """psi_1(z) for complex argument with Re z > 0, vectorized.

    Points with |z| >= 16 go straight to the asymptotic series with
    Bernoulli numbers.  The others are first pushed to Re z >= 16 by the
    recurrence psi_1(z) = 1/z^2 + psi_1(z + 1).  Accuracy is ~1e-15
    relative over the right half-plane.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0):
        raise SingularEvaluation("trigamma evaluated at Re z <= 0")
    near = np.abs(z) < _TRIGAMMA_RADIUS
    if not np.any(near):
        return _trigamma_series(z)
    out = np.empty_like(z)
    far = ~near
    out[far] = _trigamma_series(z[far])
    zs = z[near]
    shift = np.ceil(_TRIGAMMA_RADIUS - zs.real).astype(int)
    acc = np.zeros_like(zs)
    for k in range(int(shift.max())):
        if shift.min() > k:
            acc += 1.0 / zs ** 2
            zs += 1.0
        else:
            active = shift > k
            acc[active] += 1.0 / zs[active] ** 2
            zs[active] += 1.0
    out[near] = acc + _trigamma_series(zs)
    return out[()]


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# rounding of a closed-form rate coefficient in units of eps, before an
# exponential amplifies it; against mpmath the worst seen is about 2
_ROUNDING_ULPS = 16.0


def _rounding_error(value, exp_arg=0.0, scale=0.0):
    """Floating-point error bound of a closed-form rate coefficient.

    The few roundings of a formula and its libm calls cost a bounded
    number of ulps.  exp(-x) turns the rounding of its argument into a
    relative error of up to x ulps, so the bound grows with ``exp_arg``;
    tanh(y) cannot amplify, its condition number 2y / sinh(2y) being at
    most 1.  The smallest normal number, times 1 + ``scale`` (the factor
    multiplying the exponential), covers results that underflow.  An
    array ``scale`` is overwritten.
    """
    # eps (16 + exp_arg) |value| + tiny (1 + scale), in place: the
    # factors commute, and |a value| = a |value| for a >= 0
    err = np.add(exp_arg, _ROUNDING_ULPS, out=np.empty(np.shape(value)))
    err *= _EPS
    err *= value
    np.abs(err, out=err)
    tail = np.add(scale, 1.0,
                  out=scale if isinstance(scale, np.ndarray) else None)
    tail *= _TINY
    err += tail
    return err[()]


def _x_coth(x):
    """x coth(x) for an array x >= 0, in place, with its limit 1 at 0."""
    zero = ~(x > 0.0)
    np.copyto(x, 1.0, where=zero)
    x /= np.tanh(x)
    np.copyto(x, 1.0, where=zero)
    return x


def _as_array(u):
    arr = np.asarray(u, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


class ReservoirKernel:
    """Base class; subclasses implement ``evaluate``.

    ``epsilon_sensitive`` False declares the kernel regular at eps = 0,
    so that the eps -> 0 limit is its value there: time-domain transforms
    then sample it once, at eps = 0, with no extrapolation.  True, the
    default, samples the regulator schedule and extrapolates.
    """

    name = "reservoir"
    epsilon_sensitive = True

    def evaluate(self, u, eps):
        """Return (Cs, Ca) arrays at separations ``u`` and regulator ``eps``."""
        raise NotImplementedError

    def rate_coefficients(self, omega):
        """Closed-form rate coefficients per g^2 at |omega|, or None.

        Returns {"rf": (values, errors), "sr": (values, errors)}, arrays
        shaped like ``omega``, ``errors`` bounding the floating-point
        error of ``values``.  None, the default, leaves the rates to the
        time-domain transforms of ``evaluate``.
        """
        return None

    def origin_scale(self, eps):
        """Smallest structure scale near u = 0 the quadrature must resolve."""
        return max(eps, 1e-12)

    def envelope(self, eps):
        """Decreasing large-u bound on max(|Cs|, |Ca|), or None."""
        return None

    def u_max_hint(self, omega, eps):
        """Truncation point for half-line transforms at frequency omega."""
        w = max(abs(omega), OSC_CYCLES / U_CAP)
        return max(OSC_CYCLES / w, 200.0 * self.origin_scale(eps), 10.0)

    def band_limited(self, omega_c):
        """Band-limited (eps = 0) variant, or None if unsupported."""
        return None

    def describe(self):
        return {"model": self.name}


def _require_positive(value, what):
    if not np.isfinite(value) or value <= 0:
        raise OutOfRange("%s must be positive and finite, got %r" % (what, value))
    return float(value)


class InertialVacuum(ReservoirKernel):
    """Massless-field vacuum along an inertial trajectory.  A subclass
    sets ``excess``, the regular kernel its trajectory adds; the
    regulator acts on the singular inertial part alone."""

    name = "inertial_vacuum"
    excess = None

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        eps = float(eps)
        if eps < 0:
            raise OutOfRange("regulator eps must be >= 0, got %g" % eps)
        if eps == 0.0 and np.any(u == 0.0):
            raise SingularEvaluation(
                "%s kernel is singular at u = 0 when eps = 0"
                % self.name.replace("_", " ")
            )
        d = (u * u + eps * eps) ** 2
        cs = -(u * u - eps * eps) / (FOUR_PI_SQ * d)
        ca = -eps * u / (2.0 * math.pi ** 2 * d)
        if self.excess is not None:
            cs += self.excess.evaluate(u, 0.0)[0]
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def rate_coefficients(self, omega):
        """gamma_rf = gamma_sr = |omega| / 8 pi, plus the excess's rf."""
        gamma = np.abs(np.asarray(omega, dtype=float)) / (8.0 * math.pi)
        pair = (gamma, _rounding_error(gamma))
        if self.excess is None:
            return {"rf": pair, "sr": pair}
        # the two bounds of 16 ulps each leave room for the sum's rounding
        rf, err = self.excess.rate_coefficients(omega)["rf"]
        return {"rf": (gamma + rf, pair[1] + err), "sr": pair}

    def envelope(self, eps):
        return Envelope("power", 1.2 / FOUR_PI_SQ)

    def band_limited(self, omega_c):
        return BandLimitedVacuum(omega_c, self.excess)


class AcceleratedVacuum(InertialVacuum):
    """Massless-field vacuum along a uniformly accelerated trajectory:
    the inertial kernel plus its ``UnruhExcess``, which at eps = 0 is

        W(u) = -(a^2 / 16 pi^2) sinh^-2(a u / 2),

    periodic in imaginary proper time with period 2 pi / a, i.e. thermal
    (KMS) at temperature a / 2 pi.  Its rf rate is the inertial one plus
    the excess's, (|omega| / 8 pi) coth(pi |omega| / a); sr is inertial.

    The regulator acts on the inertial part alone, the excess being
    regular, so the eps -> 0 limit is W; at finite eps, Ca keeps the
    inertial residue -eps / (2 pi^2 u^3), which the exponential envelope
    does not bound, and the eps extrapolation removes it.  Far out, W is
    the difference of two terms of size 1 / (4 pi^2 u^2), so its error
    there is a few ulps of that, absolute rather than relative.
    """

    name = "accelerated_vacuum"

    def __init__(self, acceleration):
        self.acceleration = _require_positive(acceleration, "acceleration")
        self.excess = UnruhExcess(self.acceleration)

    @property
    def kms_temperature(self):
        return self.acceleration / (2.0 * math.pi)

    def envelope(self, eps):
        a = self.acceleration
        return Envelope("exp", 1.5 * a * a / FOUR_PI_SQ, a)

    def u_max_hint(self, omega, eps):
        env = self.envelope(eps)
        dead = (math.log(max(env.amplitude, 1e-30)) + 46.0) / self.acceleration
        base = ReservoirKernel.u_max_hint(self, omega, eps)
        return max(min(base, dead), 20.0 / self.acceleration,
                   200.0 * self.origin_scale(eps))

    def describe(self):
        return {"model": self.name, "acceleration": self.acceleration,
                "kms_temperature": self.kms_temperature}


# 3 (sinh x - x) / x^3 = sum_k 3 x^(2k-2) / (2k+1)!, k >= 1; twelve terms
# reach rounding accuracy at x = 2
_SINH_SERIES = tuple(3.0 / math.factorial(2 * k + 1) for k in range(1, 13))


class UnruhExcess(ReservoirKernel):
    """What a uniform acceleration a adds to the inertial vacuum kernel,
    at eps = 0, x = a u / 2:

        Cs(u) = (a^2 / 16 pi^2) (1/x^2 - 1/sinh^2 x),   Ca(u) = 0,

    which is a^2 / 48 pi^2 at u = 0 and below 1 / (4 pi^2 u^2) everywhere.
    Its spectrum is the thermal excess (|w| / 8 pi)(coth(pi |w| / a) - 1)
    of rf alone, which decays on its own.  AcceleratedVacuum adds it on
    every route.
    """

    name = "unruh_excess"
    epsilon_sensitive = False

    def __init__(self, acceleration):
        self.acceleration = _require_positive(acceleration, "acceleration")

    def evaluate(self, u, eps):
        """(Cs, Ca) at eps = 0, whatever ``eps``."""
        u, scalar = _as_array(u)
        a = self.acceleration
        x = np.abs(0.5 * a * u)
        # with r = x / sinh x, 3 (1/x^2 - 1/sinh^2 x) = 3 (sinh x - x)/x^3
        # r (1 + r) cancels nothing below x = 2, and beyond it 1/sinh^2 x =
        # 4 e^{-2x} / expm1(-2x)^2 cannot overflow
        near = np.clip(x, _TINY, 2.0)  # r = 1 exactly at the floor
        r = near / np.sinh(near)
        near = np.polyval(_SINH_SERIES[::-1], near * near) * r * (1.0 + r)
        far = np.maximum(x, 2.0)
        far = 3.0 / (far * far) - 12.0 * np.exp(-2.0 * far) / np.expm1(
            -2.0 * far) ** 2
        cs = (a * a / (48.0 * math.pi ** 2)) * np.where(x < 2.0, near, far)
        if scalar:
            return float(cs[0]), 0.0
        return cs, np.zeros_like(cs)

    def rate_coefficients(self, omega):
        """gamma_rf = (a / 8 pi^2) y / expm1(y), y = 2 pi |omega| / a, and
        gamma_sr = 0."""
        w = np.abs(np.asarray(omega, dtype=float))
        pref = self.acceleration / (8.0 * math.pi ** 2)
        # y e^{-y} / -expm1(-y) does not overflow where e^y would, and it
        # is 1 exactly at the floor y = _TINY
        y = np.maximum((2.0 * math.pi / self.acceleration) * w, _TINY)
        rf = pref * (y * np.exp(-y) / -np.expm1(-y))
        zero = np.zeros_like(w)
        return {"rf": (rf, _rounding_error(rf, y, pref * y)),
                "sr": (zero, zero)}

    def origin_scale(self, eps):
        return 1.0 / self.acceleration

    def envelope(self, eps):
        return Envelope("power", 1.0 / FOUR_PI_SQ)


class ThermalOhmic(ReservoirKernel):
    """Ohmic reservoir J(w) = eta w exp(-w / omega_j) at temperature T.

    With s = 1/omega_j + eps and z = s - i u,

        Cs(u) = eta Re[1/z^2 + 2 T^2 psi_1(1 + T z)]
        Ca(u) = -eta Im[1/z^2] = -2 eta s u / (s^2 + u^2)^2,

    the T = 0 branch dropping the trigamma term.  The antisymmetric part
    carries no temperature dependence.  The regulator only shifts s, which
    stays positive, so the kernel is regular at eps = 0.
    """

    name = "thermal_ohmic"
    epsilon_sensitive = False

    def __init__(self, eta, omega_j, temperature=0.0):
        self.eta = _require_positive(eta, "eta")
        self.omega_j = _require_positive(omega_j, "omega_j")
        if not np.isfinite(temperature) or temperature < 0:
            raise OutOfRange(
                "temperature must be >= 0 and finite, got %r" % (temperature,)
            )
        self.temperature = float(temperature)

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        eps = float(eps)
        if eps < 0:
            raise OutOfRange("regulator eps must be >= 0, got %g" % eps)
        s = 1.0 / self.omega_j + eps
        z = s - 1j * u
        inv2 = 1.0 / (z * z)
        t = self.temperature
        if t > 0.0:
            cs = self.eta * (inv2 + 2.0 * t * t * trigamma_complex(1.0 + t * z)).real
        else:
            cs = self.eta * inv2.real
        ca = -self.eta * inv2.imag
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def rate_coefficients(self, omega):
        """gamma_sr = (pi/2) eta |omega| exp(-|omega| / omega_j) and
        gamma_rf = gamma_sr coth(|omega| / 2T), which is pi eta T at
        omega = 0 (gamma_rf = gamma_sr at T = 0)."""
        # in place, so that at most six arrays the size of omega are
        # live: the four results, x and one more; 1-d, as a ufunc turns
        # a 0-d array into a scalar
        shape = np.shape(omega)
        w = np.abs(np.asarray(omega, dtype=float)).reshape(-1)
        x = w / self.omega_j
        damp = np.negative(x)
        np.exp(damp, out=damp)
        pref = np.multiply(w, 0.5 * math.pi * self.eta)
        sr = pref * damp
        coeffs = {"sr": (sr, _rounding_error(sr, x, pref))}
        t = self.temperature
        if t == 0.0:
            coeffs["rf"] = coeffs["sr"]
        else:
            del pref  # the tail of sr's bound, before x coth's temporary
            w /= 2.0 * t
            pref = _x_coth(w)
            pref *= math.pi * self.eta * t
            damp *= pref
            coeffs["rf"] = (damp, _rounding_error(damp, x, pref))
        return {kind: tuple(a.reshape(shape)[()] for a in pair)
                for kind, pair in coeffs.items()}

    def origin_scale(self, eps):
        return max(eps, 0.25 / self.omega_j)

    def envelope(self, eps):
        s = 1.0 / self.omega_j + eps
        amp = 2.0 * self.eta * (1.0 + 2.0 * self.temperature * s)
        return Envelope("power", amp)

    def describe(self):
        return {"model": self.name, "eta": self.eta, "omega_j": self.omega_j,
                "temperature": self.temperature}


def _read_table(path, what):
    """The rows of a comma-separated table of numbers, an (n, k) array.

    Blank lines are skipped and ``#`` starts a comment; lines before
    the first row of numbers (a header) are skipped too.  After it,
    every line must hold as many numbers as the first row, at least
    three, or ConfigError names ``what``, the file and the line.  So
    does a file that is not text in the locale's encoding.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError("%s %s: %s" % (what, path, exc)) from exc
    rows = []
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            row = [float(field) for field in text.split(",")]
        except ValueError:
            if not rows:
                continue
            row = []
        if len(row) < 3 or rows and len(row) != len(rows[0]):
            raise ConfigError(
                "%s %s, line %d: expected %d comma-separated numbers, "
                "got %r" % (what, path, lineno,
                            len(rows[0]) if rows else 3, text))
        rows.append(row)
    if not rows:
        raise InsufficientSamples("no numeric rows found in %s %s"
                                  % (what, path))
    return np.array(rows)


class TabulatedKernel(ReservoirKernel):
    """Kernel interpolated from samples on a grid 0 = u_0 < u_1 < ...

    Cs is extended evenly and Ca oddly through the spline boundary
    conditions at u = 0 (clamped slope for Cs, natural for Ca).  The
    regulator is ignored: transforms of a tabulated kernel are single
    pass, with no eps extrapolation.  Evaluations beyond the grid raise
    OutOfRange.
    """

    name = "tabulated"
    epsilon_sensitive = False

    def __init__(self, u_grid, cs_samples, ca_samples):
        from scipy.interpolate import CubicSpline

        u = np.asarray(u_grid, dtype=float)
        cs = np.asarray(cs_samples, dtype=float)
        ca = np.asarray(ca_samples, dtype=float)
        if u.ndim != 1 or u.shape != cs.shape or u.shape != ca.shape:
            raise ConfigError("tabulated kernel columns must be 1-d and equal length")
        if u.size < 4:
            raise InsufficientSamples(
                "tabulated kernel needs at least 4 samples, got %d" % u.size
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(cs))
                and np.all(np.isfinite(ca))):
            raise ConfigError("tabulated kernel samples must be finite")
        if u[0] != 0.0:
            raise OutOfRange("tabulated grid must start at u = 0, got %g" % u[0])
        if np.any(np.diff(u) <= 0):
            raise OutOfRange("tabulated grid must be strictly increasing")
        ca_scale = float(np.max(np.abs(ca)))
        if ca_scale > 0 and abs(ca[0]) > 1e-8 * ca_scale:
            raise ConfigError(
                "antisymmetric part must vanish at u = 0 (odd parity), got %g"
                % ca[0]
            )
        self.u_grid, self.cs_samples, self.ca_samples = u, cs, ca
        self._cs = CubicSpline(u, cs, bc_type=((1, 0.0), "not-a-knot"))
        self._ca = CubicSpline(u, ca, bc_type=((2, 0.0), "not-a-knot"))

    @classmethod
    def from_csv(cls, path):
        """The kernel of a ``u, Cs, Ca`` table (``_read_table``)."""
        data = _read_table(path, "tabulated kernel")
        return cls(data[:, 0], data[:, 1], data[:, 2])

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        au = np.abs(u)
        if np.any(au > self.u_grid[-1] * (1.0 + 1e-12)):
            raise OutOfRange(
                "separation %g beyond tabulated grid end %g"
                % (float(np.max(au)), self.u_grid[-1])
            )
        au = np.minimum(au, self.u_grid[-1])
        cs = self._cs(au)
        ca = np.sign(u) * self._ca(au)
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def origin_scale(self, eps):
        return float(self.u_grid[1] - self.u_grid[0])

    def envelope(self, eps):
        n_tail = max(4, self.u_grid.size // 10)
        ut = self.u_grid[-n_tail:]
        mag = np.maximum(np.abs(self.cs_samples[-n_tail:]),
                         np.abs(self.ca_samples[-n_tail:]))
        amp = float(np.max(mag * ut * ut)) * 1.5
        return Envelope("power", max(amp, 1e-300))

    def u_max_hint(self, omega, eps):
        return min(ReservoirKernel.u_max_hint(self, omega, eps),
                   float(self.u_grid[-1]))

    def describe(self):
        return {"model": self.name, "samples": int(self.u_grid.size),
                "u_end": float(self.u_grid[-1])}


# ---------------------------------------------------------------------------
# band-limited vacuum kernels (eps = 0, sharp window |w| < omega_c)

_EULER_GAMMA = 0.5772156649015329
# Ci(x) - gamma - ln x = sum_k (-1)^k x^(2k) / (2k (2k)!), k >= 1; twelve
# terms reach rounding accuracy at x = 2
_CI_SERIES = tuple((-1) ** k / (2 * k * math.factorial(2 * k))
                   for k in range(1, 13))


def _ci(x):
    """Cosine integral Ci(x) = -int_x^inf cos(t) / t dt for x > 0.

    The power series up to x = 2; beyond it Ci(x) = -Re E1(ix), with
    E1(ix) from its continued fraction by the modified Lentz method.
    """
    if x <= 2.0:
        t2 = x * x
        acc = 0.0
        for c in reversed(_CI_SERIES):
            acc = acc * t2 + c
        return _EULER_GAMMA + math.log(x) + acc * t2
    # E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), z = ix
    b = complex(1.0, x)
    c = 1e300
    d = h = 1.0 / b
    for i in range(1, 100):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return -(complex(math.cos(x), -math.sin(x)) * h).real


def _sin_tail(nu, U):
    """int_U^inf sin(nu u) / u^2 du for nu >= 0."""
    if nu == 0.0:
        return 0.0
    return math.sin(nu * U) / U - nu * _ci(nu * U)


# Taylor coefficients in th^2 of the ring pieces for |th| < 0.5:
# (cos th + th sin th - 1) / th^2 = sum_k (-1)^(k-1) (2k-1)/(2k)! th^(2k-2)
# (th cos th - sin th) / th^2 = sum_k (-1)^k 2k/(2k+1)! th^(2k-1), k >= 1;
# eleven terms reach rounding accuracy at |th| = 0.5
_RING_CS_SERIES = tuple((-1) ** (k - 1) * (2 * k - 1) / math.factorial(2 * k)
                        for k in range(1, 12))
_RING_CA_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1)
                        for k in range(1, 12))


class BandLimitedVacuum:
    """Inertial vacuum kernel with its spectrum cut off sharply at omega_c.

    The windowed kernel is a "ring" carrying the cutoff oscillation,

        ring_cs(u) = (th sin th + cos th - 1) / (4 pi^2 u^2),
        ring_ca(u) = (th cos th - sin th) / (4 pi^2 u^2),   th = omega_c u,

    whose contributions beyond a truncation point U reduce to sine/cosine
    integrals (``ring_tail_*``).  ``excess`` is what the trajectory adds
    to the inertial kernel, with a spectrum that decays (UnruhExcess), or
    None; the direct route integrates it raw, less its part beyond wc.
    """

    __slots__ = ("omega_c", "excess")

    def __init__(self, omega_c, excess=None):
        self.omega_c = _require_positive(omega_c, "omega_c")
        self.excess = excess

    def ring(self, u):
        """(cs_ring, ca_ring): the windowed kernel, oscillating at omega_c."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        th = self.omega_c * u
        small = np.abs(th) < 0.5
        ths = np.where(small, th, 1.0)
        us = np.where(u == 0.0, 1.0, u)
        # closed forms away from u = 0
        cs = (-1.0 + np.cos(th) + th * np.sin(th)) / (FOUR_PI_SQ * us * us)
        ca = (th * np.cos(th) - np.sin(th)) / (FOUR_PI_SQ * us * us)
        # series in th for the short-distance window (polyval is Horner)
        t2 = ths * ths
        pref = self.omega_c ** 2 / FOUR_PI_SQ
        cs_ser = pref * np.polyval(_RING_CS_SERIES[::-1], t2)
        ca_ser = pref * ths * np.polyval(_RING_CA_SERIES[::-1], t2)
        return np.where(small, cs_ser, cs), np.where(small, ca_ser, ca)

    def _check_beat(self, w0):
        w0 = abs(float(w0))
        if w0 >= self.omega_c:
            raise OutOfRange(
                "transform frequency %g must lie inside the window %g"
                % (w0, self.omega_c)
            )
        return w0

    def ring_tail_sin_cs(self, U, w0):
        """int_U^inf ring_cs(u) sin(w0 u) du, exactly."""
        w0 = self._check_beat(w0)
        wc = self.omega_c
        t1 = -_sin_tail(w0, U)
        t2 = 0.5 * (_sin_tail(wc + w0, U) - _sin_tail(wc - w0, U))
        # int_U^inf cos(nu u) / u du = -Ci(nu U)
        t3 = 0.5 * wc * (_ci((wc + w0) * U) - _ci((wc - w0) * U))
        return (t1 + t2 + t3) / FOUR_PI_SQ

    def ring_tail_cos_ca(self, U, w0):
        """int_U^inf ring_ca(u) cos(w0 u) du, exactly."""
        w0 = self._check_beat(w0)
        wc = self.omega_c
        t1 = -0.5 * wc * (_ci((wc - w0) * U) + _ci((wc + w0) * U))
        t2 = -0.5 * (_sin_tail(wc + w0, U) + _sin_tail(wc - w0, U))
        return (t1 + t2) / FOUR_PI_SQ


def build_kernel(model, **params):
    """Construct a kernel from a model name and keyword parameters."""
    try:
        if model == "inertial_vacuum":
            _reject_extra(params, ())
            return InertialVacuum()
        if model == "accelerated_vacuum":
            _reject_extra(params, ("acceleration",))
            return AcceleratedVacuum(params["acceleration"])
        if model == "thermal_ohmic":
            _reject_extra(params, ("eta", "omega_j", "temperature"))
            return ThermalOhmic(
                params["eta"], params["omega_j"], params.get("temperature", 0.0)
            )
        if model == "tabulated":
            _reject_extra(params, ("path",))
            return TabulatedKernel.from_csv(params["path"])
    except KeyError as missing:
        raise ConfigError(
            "reservoir model %r is missing parameter %s" % (model, missing)
        ) from None
    raise ConfigError(
        "unknown reservoir model %r (expected inertial_vacuum, "
        "accelerated_vacuum, thermal_ohmic or tabulated)" % (model,)
    )


def _reject_extra(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(
            "unexpected reservoir parameter(s): %s" % ", ".join(sorted(extra))
        )
