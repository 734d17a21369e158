"""Radiative energy shifts via dispersion integrals and time-domain forms.

The shift of level a splits by mechanism, and each piece is the Hilbert
transform of the corresponding rate coefficient: with the transition
strength m_b and frequency w_ab per partner level b,

    (dE_a)_mech = (1/2pi) sum_b PV int_{-wc}^{wc} h_b(w') / (w' - w_ab) dw'

where the integrand h_b(w') = -2 m_b gamma_mech(w') uses the even
extension of gamma_rf and the odd (signed) extension of gamma_sr.  The
explicit w' factor of the transition-rate kernel has been cancelled
analytically here, so h_b is finite at w' = 0; forming it as a ratio of
computed values would manufacture a spurious pole.

The cross-check path evaluates the same shifts directly in the time
domain,

    (dE_a)_rf = g^2 sum_b m_b int_0^inf Cs(u) sin(w_ab u) du
    (dE_a)_sr = g^2 sum_b m_b int_0^inf Ca(u) cos(w_ab u) du,

which makes the sr identity manifest: the cosine is even in w_ab, so
the sr shift of every level of a two-level system is identical and the
relative shift vanishes.  Per partner level b, both mechanisms and the
whole regulator schedule come from one adaptive pass that samples
Cs and Ca together at each node and eps.

Cutoff semantics: the frequency cutoff wc of QuadratureConfig bounds
the dispersion integral.  So that both paths regularize identically,
the direct path for vacuum kernels integrates the band-limited kernel
(spectrum sharply windowed to |w| < wc, finite at eps = 0) instead of
the raw one; its cutoff-induced ringing is integrated on a short
interval and completed with analytic sine/cosine-integral tails.
Kernels whose spectra already decay (ThermalOhmic, Tabulated) are
integrated raw; their direct path has no cutoff dependence.  This
windowing choice is the largest interpretation decision in the package
and is what makes "KK equals direct" hold at finite cutoff.

Every shift carries two error fields: err_quad (quadrature, regulator
and interpolation) and err_cutoff (finite difference of the result
between wc and 2 wc).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmall
from .quadrature import (
    Envelope,
    IntegralResult,
    QuadratureConfig,
    _halfline_breakpoints,
    _work_counts,
    halfline_transform,
    integrate_adaptive,
    pv_integral,
)
from .rates import _coefficients, _kernel_transform, gamma_batch
from .system import ensure_validated, transition_elements

_RING_SPAN = 2.0  # length of the numerically integrated ring segment

log = logging.getLogger(__name__)


def _require_cutoff(cfg, omega_needed):
    if cfg.omega_cutoff is None:
        raise CutoffTooSmall(
            "omega_cutoff must be set in QuadratureConfig for shift integrals"
        )
    wc = float(cfg.omega_cutoff)
    if wc <= omega_needed:
        raise CutoffTooSmall(
            "omega_cutoff %g must exceed the largest transition frequency %g"
            % (wc, omega_needed)
        )
    return wc


# ---------------------------------------------------------------------------
# rate-coefficient interpolant over [0, 2 wc]

def _coefficient_grid(w_top, poles):
    """Frequency samples: log-dense octaves, linear seed, pole clusters."""
    w_floor = 1.0 / 64.0
    pts = set(np.linspace(0.0, w_floor, 9))
    w = w_floor
    while w < w_top:
        w_next = min(2.0 * w, w_top)
        pts.update(np.geomspace(w, w_next, 25))
        w = w_next
    pts.add(w_top)
    for p in poles:
        p = abs(p)
        if p == 0.0:
            continue
        for d in (-0.1, -0.05, -0.02, -0.01, 0.01, 0.02, 0.05, 0.1):
            q = p * (1.0 + d)
            if 0.0 < q < w_top:
                pts.add(q)
    return np.array(sorted(pts))


class ShiftWorkspace:
    """Rate coefficient of one mechanism over [0, 2 wc].

    A kernel with closed-form rate coefficients is evaluated exactly
    wherever the dispersion integral asks.  Any other kernel is sampled
    once on a frequency grid and interpolated by a cubic spline.  One
    workspace serves every level, both cutoffs of the sensitivity
    difference, and all principal-value poles of a system: the scalar-
    kernel coefficient gamma(w') does not depend on the level pair.
    """

    def __init__(self, kernel, g, cfg, mechanism, poles):
        wc = _require_cutoff(cfg, max((abs(p) for p in poles), default=0.0))
        self.omega_c = wc
        self.mechanism = mechanism
        self.stats = {}
        self.interp_error = 0.0
        self._kernel, self._g, self._cfg = kernel, g, cfg
        self._spline = None
        if kernel.rate_coefficients(0.0) is not None:
            log.debug("%s workspace: exact rate coefficients, no grid",
                      mechanism)
            return
        from scipy.interpolate import CubicSpline

        start = time.perf_counter()
        grid = _coefficient_grid(2.0 * wc, poles)
        # interpolation-error probes at octave midpoints, sampled together
        # with the grid
        mids = np.sqrt(grid[1:] * np.maximum(grid[:-1], 1e-12))
        probes = mids[:: max(1, mids.size // 8)][:9]
        vals, errs = gamma_batch(kernel, np.concatenate([grid, probes]), g,
                                 cfg, kind=mechanism, stats=self.stats)
        n = grid.size
        self._spline = CubicSpline(grid, vals[:n])
        self._err_spline = CubicSpline(grid, errs[:n])
        self.interp_error = float(np.max(np.abs(vals[n:] - self._spline(probes)))) \
            if probes.size else 0.0
        log.debug(
            "%s workspace: %d grid points, %d components, %d panels, %d "
            "kernel points, %d splits, %.3f s", mechanism, n,
            self.stats.get("components", 0), self.stats.get("panels", 0),
            self.stats.get("kernel_points", 0), self.stats.get("splits", 0),
            time.perf_counter() - start,
        )

    def _exact(self, omega):
        return _coefficients(self._kernel, omega, self._g, self._cfg,
                             (self.mechanism,))[self.mechanism]

    def coefficient(self, omega):
        """gamma_mech on the real line: even for rf, odd for sr."""
        if self._spline is None:
            return self._exact(omega).value
        omega = np.asarray(omega, dtype=float)
        val = self._spline(np.abs(omega))
        if self.mechanism == "sr":
            return np.sign(omega) * val
        return val

    def coefficient_error(self, omega):
        if self._spline is None:
            return self._exact(omega).error_estimate
        omega = np.asarray(omega, dtype=float)
        return np.abs(self._err_spline(np.abs(omega))) + self.interp_error


# ---------------------------------------------------------------------------
# dispersion-integral path

def shift_kk(system, kernel, a, mechanism, cfg=None, workspace=None):
    """Energy shift of level ``a`` from the dispersion integral.

    mechanism is "rf" or "sr".  Passing a prebuilt ShiftWorkspace reuses
    the rate-coefficient spline across levels and cutoffs.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    if spec.g == 0.0:
        return IntegralResult(0.0, 0.0)
    poles = [spec.omega_ab(i, j) for i, j in spec.active_pairs]
    ws = workspace or ShiftWorkspace(kernel, spec.g, cfg, mechanism, poles)
    return _kk_at_cutoff(spec, a, ws, ws.omega_c, cfg)


def _kk_at_cutoff(spec, a, ws, wc, cfg):
    total = 0.0
    err = 0.0
    for el in transition_elements(spec, a):
        m = el.strength
        if m == 0.0:
            continue

        def h(w, _m=m):
            return -2.0 * _m * ws.coefficient(w)

        def h_err(w, _m=m):
            return 2.0 * _m * ws.coefficient_error(w)

        res = pv_integral(h, el.omega_ab, -wc, wc, cfg, h_error=h_err,
                          extra_breakpoints=(0.0,))
        total += res.value
        err += res.error_estimate
    two_pi = 2.0 * math.pi
    return IntegralResult(total / two_pi, err / two_pi)


# ---------------------------------------------------------------------------
# time-domain path

def _direct_windowed(window, omega_ab, mechanisms, cfg):
    """Band-limited vacuum transforms: short ring segment + analytic tail.

    The ring segment of every requested mechanism comes from one
    adaptive pass.  Returns ({mechanism: (value, error)}, work counts).
    """
    w = float(omega_ab)
    aw = abs(w)

    def ring_f(u):
        cs, ca = window.ring(u)
        return np.stack([cs * np.sin(w * u) if mech == "rf"
                         else ca * np.cos(w * u) for mech in mechanisms])

    bp = _halfline_breakpoints(window.omega_c + aw, 1.0 / window.omega_c,
                               _RING_SPAN)
    ring_val, ring_err, splits = integrate_adaptive(
        ring_f, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    image_err = window.image_tail_error(_RING_SPAN, aw)
    out = {}
    for j, mech in enumerate(mechanisms):
        if mech == "rf":
            tail = math.copysign(1.0, w) * window.ring_tail_sin_cs(
                _RING_SPAN, aw) if w != 0.0 else 0.0
        else:
            tail = window.ring_tail_cos_ca(_RING_SPAN, aw)
        value = ring_val[j] + tail
        err = ring_err[j] + image_err
        # smooth (non-ringing) remainder, present for accelerated trajectories
        if mech == "rf" and window.acceleration > 0.0:
            def f_smooth(u, eps):
                return window.smooth_cs(u)

            res = halfline_transform(
                f_smooth, w, cfg, "sin",
                u_max=max(2500.0 / max(aw, 0.1), 50.0),
                u_scale=2.0 * math.pi / window.acceleration,
                envelope=window.smooth_envelope(), extrapolate=False,
            )
            value += res.value
            err += res.error_estimate
        out[mech] = (value, err)
    return out, _work_counts(bp.size - 1, splits, 1, len(mechanisms))


def _direct_raw(kernel, omega_ab, mechanisms, cfg):
    """Raw-kernel transforms for spectra that decay on their own.

    One adaptive pass covers every requested mechanism and the whole
    regulator schedule, so each kernel sample serves all of them.
    Returns ({mechanism: (value, error)}, the pass's detail with its
    work).
    """
    res = _kernel_transform(
        kernel, omega_ab, cfg,
        [0 if mech == "rf" else 1 for mech in mechanisms],
        ["sin" if mech == "rf" else "cos" for mech in mechanisms])
    return ({mech: (r.value, r.error_estimate)
             for mech, r in zip(mechanisms, res)}, res[0].detail)


def shift_direct(system, kernel, a, mechanism, cfg=None, *, omega_c=None):
    """Energy shift of level ``a`` evaluated in the time domain.

    ``mechanism`` "rf" or "sr" returns that shift as an IntegralResult;
    "both" returns {"rf": ..., "sr": ...}, with both mechanisms taken
    from one pass per partner level that shares every kernel sample.
    """
    mechanisms = ("rf", "sr") if mechanism == "both" else (mechanism,)
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    total = dict.fromkeys(mechanisms, 0.0)
    err = dict.fromkeys(mechanisms, 0.0)
    if spec.g != 0.0:
        poles = [abs(spec.omega_ab(i, j)) for i, j in spec.active_pairs]
        wc = omega_c if omega_c is not None else _require_cutoff(
            cfg, max(poles, default=0.0)
        )
        window = kernel.band_limited(wc)
        g2 = spec.g ** 2
        for el in transition_elements(spec, a):
            m = el.strength
            if m == 0.0:
                continue
            start = time.perf_counter()
            if window is not None:
                parts, work = _direct_windowed(window, el.omega_ab,
                                               mechanisms, cfg)
            else:
                parts, work = _direct_raw(kernel, el.omega_ab, mechanisms, cfg)
            log.debug(
                "direct pass at omega %.6g: %d components, %d panels, %d "
                "kernel points, %d splits, %.3f s", el.omega_ab,
                work["components"], work["panels"], work["kernel_points"],
                work["splits"], time.perf_counter() - start,
            )
            for mech, (v, e) in parts.items():
                total[mech] += g2 * m * v
                err[mech] += g2 * m * e
    results = {mech: IntegralResult(total[mech], err[mech])
               for mech in mechanisms}
    return results if mechanism == "both" else results[mechanism]


# ---------------------------------------------------------------------------
# assembled results

@dataclass
class ShiftResult:
    """Both mechanism shifts of one level with error diagnostics."""

    a: int
    label: str
    delta_e_rf: float
    delta_e_sr: float
    omega_c: float
    err_quad: float
    err_cutoff: float
    method: str = "kk"
    detail: dict = field(default_factory=dict, repr=False)

    @property
    def total(self):
        return self.delta_e_rf + self.delta_e_sr


def compute_shift(system, kernel, a, cfg=None, method="kk", workspaces=None):
    """ShiftResult for level index ``a``.

    method "kk" uses the dispersion path, "direct" the time-domain path,
    "both" reports kk values plus the cross-path residual in detail.
    The cutoff sensitivity err_cutoff is |dE(2 wc) - dE(wc)| summed over
    mechanisms.  ``workspaces`` may map "rf" and "sr" to prebuilt
    ShiftWorkspaces of this system, kernel and cfg.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    poles = [spec.omega_ab(i, j) for i, j in spec.active_pairs]
    wc = _require_cutoff(cfg, max((abs(p) for p in poles), default=0.0))
    values = {}
    errs = {}
    cut = {}
    detail = {}
    if method in ("kk", "both"):
        ws_pair = workspaces or {
            mech: ShiftWorkspace(kernel, spec.g, cfg, mech, poles)
            for mech in ("rf", "sr")
        }
        for mech in ("rf", "sr"):
            res = _kk_at_cutoff(spec, a, ws_pair[mech], wc, cfg) \
                if spec.g != 0.0 else IntegralResult(0.0, 0.0)
            res2 = _kk_at_cutoff(spec, a, ws_pair[mech], 2.0 * wc, cfg) \
                if spec.g != 0.0 else IntegralResult(0.0, 0.0)
            values[mech] = res.value
            errs[mech] = res.error_estimate
            cut[mech] = abs(res2.value - res.value)
    if method in ("direct", "both"):
        dvals = shift_direct(spec, kernel, a, "both", cfg)
        if method == "direct":
            dvals2 = shift_direct(spec, kernel, a, "both", cfg,
                                  omega_c=2.0 * wc) \
                if kernel.band_limited(wc) is not None else dvals
            for mech in ("rf", "sr"):
                values[mech] = dvals[mech].value
                errs[mech] = dvals[mech].error_estimate
                cut[mech] = abs(dvals2[mech].value - dvals[mech].value)
        else:
            detail["kk_vs_direct_residual"] = max(
                abs(values[m] - dvals[m].value) for m in ("rf", "sr")
            )
            detail["direct_rf"] = dvals["rf"].value
            detail["direct_sr"] = dvals["sr"].value
    return ShiftResult(
        a=a, label=spec.labels[a],
        delta_e_rf=values["rf"], delta_e_sr=values["sr"], omega_c=wc,
        err_quad=errs["rf"] + errs["sr"],
        err_cutoff=cut["rf"] + cut["sr"],
        method=method, detail=detail,
    )


def delta_sr_relative(system, kernel, cfg=None, method="kk", workspace=None):
    """Two-level sr shift difference dE_upper^sr - dE_lower^sr.

    This vanishes identically (the sr shift moves both levels equally);
    the returned IntegralResult carries the numerical residual and its
    combined error estimate.  ``workspace`` may supply the prebuilt sr
    ShiftWorkspace of this system, kernel and cfg for the kk method.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    if spec.n_levels != 2:
        raise ValueError("relative sr shift is defined for two-level systems")
    if method == "kk":
        ws = workspace
        if ws is None and spec.g != 0.0:
            poles = [spec.omega_ab(i, j) for i, j in spec.active_pairs]
            ws = ShiftWorkspace(kernel, spec.g, cfg, "sr", poles)
        hi = shift_kk(spec, kernel, 1, "sr", cfg, workspace=ws)
        lo = shift_kk(spec, kernel, 0, "sr", cfg, workspace=ws)
    else:
        hi = shift_direct(spec, kernel, 1, "sr", cfg)
        lo = shift_direct(spec, kernel, 0, "sr", cfg)
    return IntegralResult(hi.value - lo.value,
                          hi.error_estimate + lo.error_estimate)


# ---------------------------------------------------------------------------
# two-level level-splitting shift

def lamb_shift_two_level(kernel, g, omega_0, cfg=None, *,
                         gamma_rf_override=None):
    """Radiative shift of the two-level splitting.

    Evaluates the half-line dispersion form

        (1/2pi) int_0^wc gamma_rf(w') [1/(w' + w0) - P/(w' - w0)] dw',

    equal to dE_upper - dE_lower since the sr parts cancel.  A callable
    ``gamma_rf_override(w_array) -> array`` replaces the kernel-derived
    coefficient (the kernel may then be None), which keeps toy spectra
    testable against elementary antiderivatives.
    """
    cfg = cfg or QuadratureConfig()
    if omega_0 <= 0:
        raise CutoffTooSmall("omega_0 must be positive, got %g" % omega_0)
    wc = _require_cutoff(cfg, omega_0)
    if gamma_rf_override is not None:
        def h(w, _f=gamma_rf_override):
            w = np.asarray(w, dtype=float)
            return np.broadcast_to(np.asarray(_f(w), dtype=float), w.shape)

        h_err = None
        base_err = 0.0
    else:
        if g == 0.0:
            return IntegralResult(0.0, 0.0)
        ws = ShiftWorkspace(kernel, g, cfg, "rf", [omega_0])
        h = ws.coefficient
        h_err = ws.coefficient_error
        base_err = 0.0

    def regular(w):
        return np.asarray(h(w)) / (w + omega_0)

    bp = np.unique(np.concatenate([
        np.linspace(0.0, wc, 33),
        np.geomspace(max(omega_0 / 32.0, wc * 1e-9), wc, 33),
    ]))
    reg_val, reg_err, _ = integrate_adaptive(
        regular, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    pv = pv_integral(h, omega_0, 0.0, wc, cfg, h_error=h_err)
    two_pi = 2.0 * math.pi
    value = (reg_val - pv.value) / two_pi
    err = (reg_err + pv.error_estimate + base_err) / two_pi
    return IntegralResult(value, err)
