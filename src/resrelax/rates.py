"""Relaxation rate coefficients and Einstein coefficients.

Two mechanisms contribute to the relaxation of a level:

* the symmetric kernel part drives fluctuation-type dissipation,

      gamma_rf(w) = g^2 int_0^inf Cs(u) cos(w u) du,

  an even function of the transition frequency, and

* the antisymmetric part drives the back-reaction type,

      gamma_sr(w) = -g^2 int_0^inf Ca(u) sin(w u) du,

  odd in w.

``rate_coefficients`` returns both, the even gamma_rf(|w|) and the
signed gamma_sr(w), from one call.  Kernels with a closed form
(``ReservoirKernel.rate_coefficients``) give them exactly, with a
floating-point error bound; only the others go through the time-domain
transforms and the eps -> 0 limit, one pass for both mechanisms.

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

from .errors import NegativeExcitationRate, NumericalError, ZeroRelaxationRate
from .quadrature import IntegralResult, QuadratureConfig, halfline_transform
from .system import ensure_validated, transition_elements

_BAND_FLOOR = 1.0 / 64.0
MECHANISMS = ("rf", "sr")


def _kernel_transform(kernel, omegas, cfg, kinds):
    """Half-line transforms of the kernel pair (Cs, Ca) in one pass.

    ``kinds`` give the "cos" or "sin" of Cs and of Ca, and ``omegas`` is
    one frequency or an array of them.  This is the one regulator policy:
    cfg's schedule is divided by max(1, the largest |omega|, the
    kernel's spectral scale), so eps * omega stays small at every
    frequency the call and the kernel spectrum reach.  Truncation
    follows the kernel at the smallest |omega|.  Returns the
    IntegralResults of Cs and of Ca (see halfline_transform).
    """
    om = np.abs(np.asarray(omegas, dtype=float))
    scale = max(1.0, float(np.max(om)), kernel.spectral_scale())
    sched = tuple(e / scale for e in cfg.epsilon_schedule)

    def f(u, eps):
        return np.stack(kernel.evaluate(u, eps))

    return halfline_transform(
        f, omegas, cfg, kinds,
        u_max=cfg.u_max if cfg.u_max is not None else
        kernel.u_max_hint(float(np.min(om)), sched[0]),
        u_scale=kernel.origin_scale(sched[0]),
        envelope=kernel.envelope(sched[0]),
        eps_schedule=sched if kernel.epsilon_sensitive else sched[:1],
    )


def _time_domain(kernel, om, cfg):
    """Time-domain coefficients at the frequencies ``om`` (all >= 0).

    One pass per octave band, in which rf (Cs cos) and sr (Ca sin) share
    every kernel sample.  Returns ({kind: (values, errors)} per unit g^2,
    arrays shaped like ``om``; the passes' summed work counts).
    """
    out = {kind: (np.zeros(om.shape), np.zeros(om.shape))
           for kind in MECHANISMS}
    work = {}
    bands = {}
    for i, w in enumerate(om.flat):
        band = None if w < _BAND_FLOOR else math.floor(math.log2(w))
        bands.setdefault(band, []).append(i)
    for idx in bands.values():
        res = _kernel_transform(kernel, om.flat[idx], cfg, ["cos", "sin"])
        for kind, r, sign in zip(MECHANISMS, res, (1.0, -1.0)):
            out[kind][0].flat[idx] = sign * r.value
            out[kind][1].flat[idx] = r.error_estimate
        for key in ("components", "splits", "panels", "kernel_points"):
            work[key] = work.get(key, 0) + res[0].detail[key]
    return out, work


def _require_finite(results, g, what):
    """``results``, {mechanism: IntegralResult}, if all of it is finite."""
    if not all(np.all(np.isfinite([r.value, r.error_estimate]))
               for r in results.values()):
        raise NumericalError("%s are not finite at g = %g; reduce system.g "
                             "or the [reservoir] parameters" % (what, g))
    return results


def rate_coefficients(kernel, omega, g, cfg=None):
    """Both rate coefficients at ``omega``: {"rf": ..., "sr": ...}.

    ``omega`` is one frequency or an array of them.  Each IntegralResult
    holds gamma_rf(|w|) for "rf" and the odd extension sign(w)
    gamma_sr(|w|) for "sr": floats for a scalar ``omega``, arrays shaped
    like it otherwise.  A closed-form kernel gives them exactly, with an
    error that bounds the rounding; any other goes through _time_domain,
    and the error combines quadrature, truncation and regulator-
    extrapolation contributions.  Each ``detail`` then carries the
    passes' summed work counts: components, splits, panels and
    kernel_points.  A value or error that is not finite, such as g^2
    overflowing, raises NumericalError.
    """
    om = np.asarray(omega, dtype=float)
    zeros = (np.zeros(om.shape), np.zeros(om.shape))
    coeffs, work = dict.fromkeys(MECHANISMS, zeros), {}
    if g != 0.0 and om.size:
        coeffs = kernel.rate_coefficients(np.abs(om))
        if coeffs is None:
            coeffs, work = _time_domain(kernel, np.abs(om),
                                        cfg or QuadratureConfig())
    g2 = g * g
    shaped = float if om.ndim == 0 else np.asarray
    out = {}
    for kind in MECHANISMS:
        values, errors = coeffs[kind]
        if kind == "sr":
            values = np.sign(om) * values
        out[kind] = IntegralResult(shaped(g2 * values), shaped(g2 * errors),
                                   detail=dict(work))
    return _require_finite(out, g, "rate coefficients")


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
        if self.a_down == 0.0:
            raise ZeroRelaxationRate(
                "a_up / a_down undefined: a_down = 0 (zero coupling g, or "
                "rates that underflow at this frequency)")
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


def _transition_rows(spec, kernel, cfg, elements):
    """TransitionRates of ``elements`` and the coefficients behind them.

    Both coefficients at every distinct |omega_ab| come from one call.
    Returns (freqs, {kind: IntegralResult of arrays aligned with freqs},
    rows).
    """
    freqs = sorted({round(abs(el.omega_ab), 15) for el in elements})
    coeffs = rate_coefficients(kernel, freqs, spec.g, cfg)
    at = {w: i for i, w in enumerate(freqs)}
    grf, gsr = coeffs["rf"], coeffs["sr"]
    rows = []
    for el in elements:
        w = el.omega_ab
        m = el.strength
        i = at[round(abs(w), 15)]
        rows.append(TransitionRate(
            a=el.a, b=el.b, omega_ab=w, strength=m,
            rf=-2.0 * w * m * grf.value[i],
            sr=-2.0 * abs(w) * m * gsr.value[i],
            rf_error=2.0 * abs(w) * m * grf.error_estimate[i],
            sr_error=2.0 * abs(w) * m * gsr.error_estimate[i],
        ))
    return freqs, coeffs, rows


def transition_rates(spec, a, kernel, cfg=None):
    """Per-partner relaxation contributions of level index ``a``."""
    spec = ensure_validated(spec)
    return _transition_rows(spec, kernel, cfg or QuadratureConfig(),
                            transition_elements(spec, a))[2]


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
    elements = [el for a in range(spec.n_levels)
                for el in transition_elements(spec, a)]
    freqs, coeffs, transition_rows = _transition_rows(
        spec, kernel, cfg or QuadratureConfig(), elements)
    gamma_rows = []
    for i, w in enumerate(freqs):
        for kind in ("rf", "sr"):
            res = coeffs[kind]
            gamma_rows.append((kind, w, float(res.value[i]),
                               float(res.error_estimate[i])))
    return gamma_rows, transition_rows
