"""Relaxation rate coefficients and Einstein coefficients.

Two mechanisms contribute to the relaxation of a level:

* the symmetric kernel part drives fluctuation-type dissipation,

      gamma_rf(w) = g^2 int_0^inf Cs(u) cos(w u) du,

  an even function of the transition frequency, and

* the antisymmetric part drives the back-reaction type,

      gamma_sr(w) = -g^2 int_0^inf Ca(u) sin(w u) du,

  odd in w.  ``gamma_rf`` and ``gamma_sr`` return the value at |w|;
  ``gamma_sr_signed`` restores the odd parity.

Kernels with a closed form (``ReservoirKernel.rate_coefficients``) give
both coefficients exactly, with a floating-point error bound; only the
others go through the time-domain transforms and the eps -> 0 limit.

A transition a -> b with frequency w_ab = E_a - E_b and strength
m_ab = sum_i |<a|S_i|b>|^2 contributes

    Gamma_rf(a, b) = -2 w_ab m_ab gamma_rf(|w_ab|)
    Gamma_sr(a, b) = -2 |w_ab| m_ab gamma_sr(|w_ab|)

to the energy relaxation rate of level a; summed over partners b this
reproduces d<H>/dtau = -gamma_rf <H> - (w_0/2) gamma_sr for a two-level
system.  Downward partners therefore enter with negative sign through
w_ab > 0 and upward partners with positive sign, and the two mechanisms
cancel exactly for the ground level of a zero-temperature reservoir.

Einstein coefficients per unit strength follow as

    A_up = (gamma_rf - gamma_sr) / 2,   A_down = (gamma_rf + gamma_sr) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeExcitationRate
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    batch_halfline_transform,
    extrapolate_regulator,
    halfline_transform,
)
from .system import ensure_validated, transition_elements


def _transform(kernel, omega, cfg, part, kind):
    """Half-line transform of one kernel part with kernel-chosen truncation."""
    idx = 0 if part == "cs" else 1

    def f(u, eps):
        return kernel.evaluate(u, eps)[idx]

    eps0 = cfg.epsilon_schedule[0]
    return halfline_transform(
        f, omega, cfg, kind,
        u_max=cfg.u_max if cfg.u_max is not None else kernel.u_max_hint(omega, eps0),
        u_scale=kernel.origin_scale(eps0),
        envelope=kernel.envelope(eps0),
        extrapolate=kernel.epsilon_sensitive,
    )


def _exact_batch(kernel, omegas, g, kind):
    """Closed-form gamma_batch values and errors, or None without one."""
    om = np.asarray(omegas, dtype=float)
    exact = kernel.rate_coefficients(om)
    if exact is None:
        return None
    values, errors = exact[kind]
    if kind == "sr":
        values = np.sign(om) * values
    g2 = g * g
    return g2 * values, g2 * errors


def gamma_rf(kernel, omega, g, cfg=None):
    """Fluctuation-type rate coefficient at |omega|.

    Returns an IntegralResult.  For a closed-form kernel its error bounds
    the rounding; otherwise it combines quadrature, truncation and
    regulator-extrapolation contributions.
    """
    cfg = cfg or QuadratureConfig()
    if g == 0.0:
        return IntegralResult(0.0, 0.0)
    exact = _exact_batch(kernel, abs(omega), g, "rf")
    if exact is not None:
        return IntegralResult(float(exact[0]), float(exact[1]))
    res = _transform(kernel, abs(omega), cfg, "cs", "cos")
    g2 = g * g
    return IntegralResult(g2 * res.value, g2 * res.error_estimate,
                          res.eps_extrapolated)


def gamma_sr(kernel, omega, g, cfg=None):
    """Back-reaction-type rate coefficient at |omega| (>= 0 for |omega| > 0)."""
    cfg = cfg or QuadratureConfig()
    if g == 0.0 or omega == 0.0:
        return IntegralResult(0.0, 0.0)
    exact = _exact_batch(kernel, abs(omega), g, "sr")
    if exact is not None:
        return IntegralResult(float(exact[0]), float(exact[1]))
    res = _transform(kernel, abs(omega), cfg, "ca", "sin")
    g2 = g * g
    return IntegralResult(-g2 * res.value, g2 * res.error_estimate,
                          res.eps_extrapolated)


def gamma_sr_signed(kernel, omega, g, cfg=None):
    """Odd-parity extension sign(omega) * gamma_sr(|omega|)."""
    res = gamma_sr(kernel, omega, g, cfg)
    if omega < 0:
        return IntegralResult(-res.value, res.error_estimate, res.eps_extrapolated)
    return res


@dataclass
class EinsteinCoefficients:
    """Upward/downward transition coefficients per unit strength."""

    a_up: float
    a_down: float
    a_up_error: float = 0.0
    a_down_error: float = 0.0

    @property
    def ratio(self):
        """a_up / a_down; the detailed-balance diagnostic."""
        return self.a_up / self.a_down


def einstein_coefficients(grf, gsr, tol=None):
    """Combine the two rate coefficients into Einstein coefficients.

    Accepts floats or IntegralResults.  ``tol`` overrides the negativity
    tolerance on A_up, which defaults to 1e-12 |gamma_rf| plus any
    propagated quadrature error; a more negative A_up raises
    NegativeExcitationRate (unphysical input kernel or omega).
    """
    v_rf = float(grf)
    v_sr = float(gsr)
    e_rf = getattr(grf, "error_estimate", 0.0)
    e_sr = getattr(gsr, "error_estimate", 0.0)
    err = 0.5 * (e_rf + e_sr)
    a_up = 0.5 * (v_rf - v_sr)
    a_down = 0.5 * (v_rf + v_sr)
    if tol is None:
        tol = 1e-12 * abs(v_rf) + err
    if a_up < -tol:
        raise NegativeExcitationRate(
            "upward coefficient %.6e is negative beyond tolerance %.1e"
            % (a_up, tol)
        )
    return EinsteinCoefficients(a_up, a_down, err, err)


@dataclass
class TransitionRate:
    """Energy relaxation contribution of one ordered transition a -> b."""

    a: int
    b: int
    omega_ab: float
    strength: float
    rf: float
    sr: float
    rf_error: float = 0.0
    sr_error: float = 0.0

    @property
    def total(self):
        return self.rf + self.sr


class _GammaCache:
    """Caches the two rate coefficients per distinct |omega|."""

    def __init__(self, kernel, g, cfg):
        self.kernel, self.g, self.cfg = kernel, g, cfg
        self._data = {}

    def at(self, omega_abs):
        key = round(float(omega_abs), 15)
        if key not in self._data:
            self._data[key] = (
                gamma_rf(self.kernel, omega_abs, self.g, self.cfg),
                gamma_sr(self.kernel, omega_abs, self.g, self.cfg),
            )
        return self._data[key]


def transition_rates(spec, a, kernel, cfg=None, _cache=None):
    """Per-partner relaxation contributions of level index ``a``."""
    spec = ensure_validated(spec)
    cfg = cfg or QuadratureConfig()
    cache = _cache if _cache is not None else _GammaCache(kernel, spec.g, cfg)
    out = []
    for el in transition_elements(spec, a):
        w = el.omega_ab
        m = el.strength
        grf, gsr = cache.at(abs(w))
        rf = -2.0 * w * m * grf.value
        sr = -2.0 * abs(w) * m * gsr.value
        out.append(TransitionRate(
            a=el.a, b=el.b, omega_ab=w, strength=m, rf=rf, sr=sr,
            rf_error=2.0 * abs(w) * m * grf.error_estimate,
            sr_error=2.0 * abs(w) * m * gsr.error_estimate,
        ))
    return out


@dataclass
class RelaxationRate:
    """Total energy relaxation rate of a level with its breakdown."""

    value: float
    error_estimate: float
    contributions: list = field(default_factory=list)

    def __float__(self):
        return float(self.value)


def relaxation_rate(spec, a, kernel, cfg=None):
    """d<H>/dtau for the system prepared in level index ``a``.

    Sums the rf and sr contributions over all non-degenerate partners.
    """
    rates = transition_rates(spec, a, kernel, cfg)
    value = math.fsum(r.total for r in rates)
    err = math.fsum(r.rf_error + r.sr_error for r in rates)
    return RelaxationRate(value, err, rates)


def rate_table(spec, kernel, cfg=None):
    """All rate coefficients and transition rates, for reporting.

    Returns (gamma_rows, transition_rows).  gamma_rows hold the two
    coefficients at each distinct transition frequency; transition_rows
    hold the per-pair energy relaxation contributions.
    """
    spec = ensure_validated(spec)
    cfg = cfg or QuadratureConfig()
    cache = _GammaCache(kernel, spec.g, cfg)
    freqs = sorted({round(abs(spec.omega_ab(a, b)), 15)
                    for a, b in spec.active_pairs})
    gamma_rows = []
    for w in freqs:
        grf, gsr = cache.at(w)
        gamma_rows.append(("rf", w, grf.value, grf.error_estimate))
        gamma_rows.append(("sr", w, gsr.value, gsr.error_estimate))
    transition_rows = []
    for a in range(spec.n_levels):
        transition_rows.extend(transition_rates(spec, a, kernel, cfg, _cache=cache))
    return gamma_rows, transition_rows


# ---------------------------------------------------------------------------
# batched evaluation over frequency grids (used by the shift integrals)

_BAND_FLOOR = 1.0 / 64.0


def _band_index(w):
    if w < _BAND_FLOOR:
        return None
    return int(math.floor(math.log2(w)))


def gamma_batch(kernel, omegas, g, cfg=None, kind="rf", stats=None):
    """Rate coefficient on a frequency grid, sharing kernel samples.

    kind "rf" returns gamma_rf(|w|) per entry; kind "sr" returns the
    signed odd extension gamma_sr_signed(w).  A closed-form kernel
    returns its exact coefficients.  Otherwise frequencies are grouped in
    octave bands; each band gets one panel layout and, for regulator-
    sensitive kernels, an epsilon schedule scaled by the band frequency
    so the extrapolation error stays uniform across the grid.  One batch
    transform per band covers the whole schedule.  ``stats``, a dict,
    accumulates the number of bands and the work counts of the batch
    transforms.

    Returns (values, errors) numpy arrays aligned with ``omegas``.
    """
    cfg = cfg or QuadratureConfig()
    om = np.asarray(omegas, dtype=float)
    values = np.zeros(om.shape)
    errors = np.zeros(om.shape)
    if g == 0.0 or om.size == 0:
        return values, errors
    exact = _exact_batch(kernel, om, g, kind)
    if exact is not None:
        return exact
    part = 0 if kind == "rf" else 1
    trig = "cos" if kind == "rf" else "sin"

    def f(u, eps):
        return kernel.evaluate(u, eps)[part]

    flat = om.ravel()
    eval_freq = np.abs(flat) if kind == "rf" else flat
    bands = {}
    for i, w in enumerate(flat):
        bands.setdefault(_band_index(abs(w)), []).append(i)
    vflat = np.zeros(flat.shape)
    eflat = np.zeros(flat.shape)
    if stats is not None:
        stats["bands"] = stats.get("bands", 0) + len(bands)
    for band, idx in bands.items():
        idx = np.array(idx)
        wb = eval_freq[idx]
        w_hi = 2.0 ** (band + 1) if band is not None else _BAND_FLOOR
        w_lo = 2.0 ** band if band is not None else 0.0
        scale = max(1.0, w_hi)
        sched = tuple(e / scale for e in cfg.epsilon_schedule)
        u_max = (cfg.u_max if cfg.u_max is not None
                 else kernel.u_max_hint(max(w_lo, _BAND_FLOOR), sched[0]))
        u_scale = kernel.origin_scale(sched[0])
        env = kernel.envelope(sched[0])
        if not kernel.epsilon_sensitive:
            sched = sched[:1]
        samples, errs = batch_halfline_transform(
            f, wb, trig, cfg, sched, u_max=u_max, u_scale=u_scale,
            envelope=env, stats=stats,
        )
        if len(sched) == 1:
            v0, e0 = samples[0], errs[0]
        else:
            v0, residual, wl1 = extrapolate_regulator(
                list(zip(sched, samples)), order=2)
            e0 = residual + wl1 * errs.max(axis=0)
        vflat[idx] = v0
        eflat[idx] = e0
    g2 = g * g
    if kind == "sr":
        vflat = -vflat
    values = (g2 * vflat).reshape(om.shape)
    errors = (g2 * eflat).reshape(om.shape)
    return values, errors
