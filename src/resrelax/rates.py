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
from .quadrature import IntegralResult, QuadratureConfig, halfline_transform
from .system import ensure_validated, transition_elements

_BAND_FLOOR = 1.0 / 64.0


def _kernel_transform(kernel, omegas, cfg, parts, kinds):
    """Half-line transforms of kernel parts in one pass.

    ``parts`` index the pair (Cs, Ca) that ``kernel.evaluate`` returns,
    ``kinds`` give each part's "cos" or "sin", and ``omegas`` is one
    frequency or an array of them.  This is the one regulator policy:
    cfg's schedule is divided by max(1, the largest |omega|, the
    kernel's spectral scale), so eps * omega stays small at every
    frequency the call and the kernel spectrum reach.  Truncation
    follows the kernel at the smallest |omega|.  Returns one
    IntegralResult per part (see halfline_transform).
    """
    om = np.abs(np.asarray(omegas, dtype=float))
    scale = max(1.0, float(np.max(om)), kernel.spectral_scale())
    sched = tuple(e / scale for e in cfg.epsilon_schedule)

    def f(u, eps):
        cs_ca = kernel.evaluate(u, eps)
        return np.stack([cs_ca[p] for p in parts])

    return halfline_transform(
        f, omegas, cfg, kinds,
        u_max=cfg.u_max if cfg.u_max is not None else
        kernel.u_max_hint(float(np.min(om)), sched[0]),
        u_scale=kernel.origin_scale(sched[0]),
        envelope=kernel.envelope(sched[0]),
        eps_schedule=sched if kernel.epsilon_sensitive else sched[:1],
    )


def _time_domain(kernel, om, cfg, kinds, stats):
    """Time-domain coefficients at the frequencies ``om`` (all >= 0).

    One pass per octave band, in which rf (Cs cos) and sr (Ca sin) share
    every kernel sample.  Returns {kind: (values, errors)} per unit g^2,
    arrays shaped like ``om``.
    """
    out = {kind: (np.zeros(om.shape), np.zeros(om.shape)) for kind in kinds}
    bands = {}
    for i, w in enumerate(om.flat):
        band = None if w < _BAND_FLOOR else math.floor(math.log2(w))
        bands.setdefault(band, []).append(i)
    for idx in bands.values():
        res = _kernel_transform(
            kernel, om.flat[idx], cfg, [0 if k == "rf" else 1 for k in kinds],
            ["cos" if k == "rf" else "sin" for k in kinds])
        for kind, r in zip(kinds, res):
            out[kind][0].flat[idx] = r.value if kind == "rf" else -r.value
            out[kind][1].flat[idx] = r.error_estimate
        if stats is not None:
            for key in ("components", "splits", "panels", "kernel_points"):
                stats[key] = stats.get(key, 0) + res[0].detail[key]
    return out


def _coefficients(kernel, omegas, g, cfg, kinds=("rf", "sr"), stats=None):
    """Rate coefficients on a frequency grid: {kind: IntegralResult}.

    Each IntegralResult holds arrays shaped like ``omegas``: gamma_rf(|w|)
    for "rf" and the signed odd extension gamma_sr_signed(w) for "sr".
    A closed-form kernel gives them exactly; any other goes through
    _time_domain, with ``stats`` accumulating its work counts.
    """
    om = np.asarray(omegas, dtype=float)
    if g == 0.0 or om.size == 0:
        return {kind: IntegralResult(np.zeros(om.shape), np.zeros(om.shape))
                for kind in kinds}
    coeffs = kernel.rate_coefficients(np.abs(om))
    extrapolated = coeffs is None and kernel.epsilon_sensitive
    if coeffs is None:
        coeffs = _time_domain(kernel, np.abs(om), cfg, kinds, stats)
    g2 = g * g
    out = {}
    for kind in kinds:
        values, errors = coeffs[kind]
        if kind == "sr":
            values = np.sign(om) * values
        out[kind] = IntegralResult(g2 * values, g2 * errors, extrapolated)
    return out


def _gamma(kernel, omega, g, cfg, kind):
    res = _coefficients(kernel, abs(omega), g, cfg or QuadratureConfig(),
                        (kind,))[kind]
    return IntegralResult(float(res.value), float(res.error_estimate),
                          res.eps_extrapolated)


def gamma_rf(kernel, omega, g, cfg=None):
    """Fluctuation-type rate coefficient at |omega|.

    Returns an IntegralResult.  For a closed-form kernel its error bounds
    the rounding; otherwise it combines quadrature, truncation and
    regulator-extrapolation contributions.
    """
    return _gamma(kernel, omega, g, cfg, "rf")


def gamma_sr(kernel, omega, g, cfg=None):
    """Back-reaction-type rate coefficient at |omega| (>= 0 for |omega| > 0)."""
    if omega == 0.0:
        return IntegralResult(0.0, 0.0)
    return _gamma(kernel, omega, g, cfg, "sr")


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


def _transition_rows(spec, kernel, cfg, elements):
    """TransitionRates of ``elements`` and the coefficients behind them.

    Both coefficients at every distinct |omega_ab| come from one call.
    Returns (freqs, {kind: IntegralResult of arrays aligned with freqs},
    rows).
    """
    freqs = sorted({round(abs(el.omega_ab), 15) for el in elements})
    coeffs = _coefficients(kernel, freqs, spec.g, cfg)
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


# ---------------------------------------------------------------------------
# frequency grids (used by the shift integrals)

def gamma_batch(kernel, omegas, g, cfg=None, kind="rf", stats=None):
    """Rate coefficient on a frequency grid, sharing kernel samples.

    kind "rf" returns gamma_rf(|w|) per entry; kind "sr" returns the
    signed odd extension gamma_sr_signed(w).  A closed-form kernel
    returns its exact coefficients; any other takes the time-domain
    route of gamma_rf and gamma_sr, one pass per octave band.
    ``stats``, a dict, accumulates the work counts of those passes:
    components, splits, panels and kernel_points.

    Returns (values, errors) numpy arrays aligned with ``omegas``.
    """
    res = _coefficients(kernel, omegas, g, cfg or QuadratureConfig(), (kind,),
                        stats)[kind]
    return res.value, res.error_estimate
