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
relative shift vanishes by construction.  The dispersion route reaches
it only numerically, so delta_sr_relative checks it there.  Each route
takes one pass per partner level b (and, on the dispersion route, per
cutoff) in which every sample serves both mechanisms: a PV pass on the
stacked rf and sr integrands of one ShiftWorkspace, or an adaptive pass
that samples Cs and Ca together at each node and eps.

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
    IntegralResult,
    QuadratureConfig,
    _halfline_breakpoints,
    _work_counts,
    halfline_transform,
    integrate_adaptive,
    pv_integral,
)
from .rates import (MECHANISMS, _kernel_transform, _require_finite,
                    rate_coefficients)
from .system import ensure_validated, transition_elements, two_level_system

_RING_SPAN = 2.0  # length of the numerically integrated ring segment

log = logging.getLogger(__name__)


def _log_pass(what, work, start):
    """One debug line: the work counts of a pass and its time."""
    log.debug("%s: %d components, %d panels, %d kernel points, %d splits, "
              "%.3f s", what, work["components"], work["panels"],
              work["kernel_points"], work["splits"],
              time.perf_counter() - start)


def _poles(spec):
    return [spec.omega_ab(i, j) for i, j in spec.active_pairs]


def _require_cutoff(cfg, poles):
    """The frequency cutoff of cfg, which must exceed every |pole|."""
    omega_needed = max((abs(p) for p in poles), default=0.0)
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
        for d in (-0.1, -0.05, -0.02, -0.01, 0.01, 0.02, 0.05, 0.1):
            q = abs(p) * (1.0 + d)
            if 0.0 < q < w_top:
                pts.add(q)
    return np.array(sorted(pts))


class ShiftWorkspace:
    """Rate coefficients of both mechanisms over [0, 2 wc].

    ``mechanism`` must be "both"; ``coefficient`` and
    ``coefficient_error`` stack the mechanisms in the order of MECHANISMS.
    A kernel with closed-form rate coefficients is evaluated exactly
    wherever the dispersion integral asks.  Any other kernel is sampled
    once on a frequency grid, both mechanisms from the same kernel
    samples, and interpolated by a cubic spline; ``stats`` holds the
    work counts of that sampling.  One workspace serves
    every level, both cutoffs of the sensitivity difference, and all
    principal-value poles of a system: the scalar-kernel coefficient
    gamma(w') does not depend on the level pair.
    """

    def __init__(self, kernel, g, cfg, mechanism, poles):
        if mechanism != "both":
            raise ValueError("a ShiftWorkspace holds both mechanisms, got %r"
                             % (mechanism,))
        wc = _require_cutoff(cfg, poles)
        self.omega_c = wc
        self.stats = {}
        self.interp_error = np.zeros(len(MECHANISMS))
        self._kernel, self._g, self._cfg = kernel, g, cfg
        self._spline = None
        if kernel.rate_coefficients(0.0) is not None:
            log.debug("rf+sr workspace: exact rate coefficients, no grid")
            return
        from scipy.interpolate import CubicSpline

        start = time.perf_counter()
        grid = _coefficient_grid(2.0 * wc, poles)
        # interpolation-error probes at octave midpoints, sampled together
        # with the grid
        mids = np.sqrt(grid[1:] * np.maximum(grid[:-1], 1e-12))
        probes = mids[:: max(1, mids.size // 8)][:9]
        coeffs = rate_coefficients(kernel, np.concatenate([grid, probes]),
                                   g, cfg)
        self.stats = coeffs["rf"].detail
        vals, errs = self._stack(coeffs)
        n = grid.size
        self._spline = CubicSpline(grid, vals[:, :n], axis=1)
        self._err_spline = CubicSpline(grid, errs[:, :n], axis=1)
        self.interp_error = np.max(
            np.abs(vals[:, n:] - self._spline(probes)), axis=1)
        _log_pass("rf+sr workspace, %d grid points" % n, self.stats, start)

    def _stack(self, coeffs):
        """(values, errors) of {mechanism: IntegralResult}, stacked."""
        return (np.stack([coeffs[m].value for m in MECHANISMS]),
                np.stack([coeffs[m].error_estimate for m in MECHANISMS]))

    def _exact(self, omega):
        return self._stack(rate_coefficients(self._kernel, omega, self._g,
                                             self._cfg))

    def coefficient(self, omega):
        """gamma of each mechanism on the real line: even rf, odd sr."""
        omega = np.asarray(omega, dtype=float)
        if self._spline is None:
            return self._exact(omega)[0]
        rf, sr = self._spline(np.abs(omega))
        return np.stack([rf, np.sign(omega) * sr])

    def coefficient_error(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self._spline is None:
            return self._exact(omega)[1]
        return (np.abs(self._err_spline(np.abs(omega)))
                + self.interp_error.reshape((-1,) + (1,) * omega.ndim))


# ---------------------------------------------------------------------------
# dispersion-integral path

def shift_kk(system, kernel, a, cfg=None, workspace=None, *, omega_c=None):
    """Energy shifts of level ``a`` from the dispersion integral.

    Returns {"rf": ..., "sr": ...}, both from one PV pass per partner
    level on the stack of their integrands, at the cutoff ``omega_c``
    (default cfg's; the workspace covers up to twice that).  A prebuilt
    ShiftWorkspace lends its coefficients to every level and cutoff;
    without one, a workspace of both mechanisms is built.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    ws = workspace or ShiftWorkspace(kernel, spec.g, cfg, "both",
                                     _poles(spec))
    wc = omega_c if omega_c is not None else ws.omega_c
    total, err = np.zeros((2, len(MECHANISMS)))
    for el in transition_elements(spec, a):
        m = el.strength
        if m == 0.0 or spec.g == 0.0:
            continue

        def h(w, _m=m):
            return -2.0 * _m * ws.coefficient(w)

        def h_err(w, _m=m):
            return 2.0 * _m * ws.coefficient_error(w)

        start = time.perf_counter()
        res = pv_integral(h, el.omega_ab, -wc, wc, cfg, h_error=h_err,
                          extra_breakpoints=(0.0,))
        _log_pass("pv pass at pole %.6g, cutoff %.6g" % (el.omega_ab, wc),
                  res.detail, start)
        total += res.value
        err += res.error_estimate
    two_pi = 2.0 * math.pi
    return {mech: IntegralResult(float(total[j] / two_pi),
                                 float(err[j] / two_pi))
            for j, mech in enumerate(MECHANISMS)}


# ---------------------------------------------------------------------------
# time-domain path

def _direct_windowed(window, omega_ab, cfg):
    """Band-limited vacuum transforms: short ring segment + analytic tail.

    The ring segment of both mechanisms comes from one adaptive pass.
    Returns ({mechanism: (value, error)}, work counts).
    """
    w = float(omega_ab)
    aw = abs(w)

    def ring_f(u):
        cs, ca = window.ring(u)
        return np.stack([cs * np.sin(w * u), ca * np.cos(w * u)])

    bp = _halfline_breakpoints(window.omega_c + aw, 1.0 / window.omega_c,
                               _RING_SPAN)
    ring_val, ring_err, splits = integrate_adaptive(
        ring_f, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    image_err = window.image_tail_error(_RING_SPAN, aw)
    rf_tail = (math.copysign(1.0, w) * window.ring_tail_sin_cs(_RING_SPAN, aw)
               if w != 0.0 else 0.0)
    tails = (rf_tail, window.ring_tail_cos_ca(_RING_SPAN, aw))
    out = {mech: [ring_val[j] + tails[j], ring_err[j] + image_err]
           for j, mech in enumerate(MECHANISMS)}
    # smooth (non-ringing) rf remainder, present for accelerated trajectories
    if window.acceleration > 0.0:
        res = halfline_transform(
            lambda u, eps: window.smooth_cs(u), w, cfg, "sin",
            u_max=max(2500.0 / max(aw, 0.1), 50.0),
            u_scale=2.0 * math.pi / window.acceleration,
            envelope=window.smooth_envelope(),
            eps_schedule=cfg.epsilon_schedule[:1],
        )
        out["rf"][0] += res.value
        out["rf"][1] += res.error_estimate
    return out, _work_counts(bp.size - 1, splits, 1, len(MECHANISMS))


def shift_direct(system, kernel, a, cfg=None, *, omega_c=None):
    """Energy shifts of level ``a`` evaluated in the time domain.

    Returns {"rf": ..., "sr": ...}, both mechanisms taken from one pass
    per partner level that shares every kernel sample.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    total = dict.fromkeys(MECHANISMS, 0.0)
    err = dict.fromkeys(MECHANISMS, 0.0)
    if spec.g != 0.0:
        wc = (omega_c if omega_c is not None
              else _require_cutoff(cfg, _poles(spec)))
        window = kernel.band_limited(wc)
        g2 = spec.g * spec.g
        for el in transition_elements(spec, a):
            m = el.strength
            if m == 0.0:
                continue
            start = time.perf_counter()
            if window is not None:
                parts, work = _direct_windowed(window, el.omega_ab, cfg)
            else:  # a raw spectrum that decays on its own
                res = _kernel_transform(kernel, el.omega_ab, cfg,
                                        ["sin", "cos"])
                parts = {mech: (r.value, r.error_estimate)
                         for mech, r in zip(MECHANISMS, res)}
                work = res[0].detail
            _log_pass("direct pass at omega %.6g" % el.omega_ab, work, start)
            for mech, (v, e) in parts.items():
                total[mech] += g2 * m * v
                err[mech] += g2 * m * e
    return _require_finite({mech: IntegralResult(total[mech], err[mech])
                            for mech in MECHANISMS}, spec.g, "direct shifts")


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


def compute_shift(system, kernel, a, cfg=None, method="kk", workspace=None):
    """ShiftResult for level index ``a``.

    method "kk" uses the dispersion path, "direct" the time-domain path,
    "both" reports kk values plus the cross-path residual in detail.
    The cutoff sensitivity err_cutoff is |dE(2 wc) - dE(wc)| summed over
    mechanisms.  ``workspace`` may supply a prebuilt "both"
    ShiftWorkspace of this system, kernel and cfg.
    """
    spec = ensure_validated(system)
    cfg = cfg or QuadratureConfig()
    poles = _poles(spec)
    wc = _require_cutoff(cfg, poles)
    detail = {}
    if method in ("kk", "both"):
        ws = workspace or ShiftWorkspace(kernel, spec.g, cfg, "both", poles)
        at_wc = shift_kk(spec, kernel, a, cfg, ws, omega_c=wc)
        at_2wc = shift_kk(spec, kernel, a, cfg, ws, omega_c=2.0 * wc)
    if method in ("direct", "both"):
        direct = shift_direct(spec, kernel, a, cfg)
        if method == "direct":
            at_wc = direct
            at_2wc = shift_direct(spec, kernel, a, cfg, omega_c=2.0 * wc) \
                if kernel.band_limited(wc) is not None else direct
        else:
            detail["kk_vs_direct_residual"] = max(
                abs(at_wc[m].value - direct[m].value) for m in MECHANISMS
            )
    rf, sr = at_wc["rf"], at_wc["sr"]
    return ShiftResult(
        a=a, label=spec.labels[a],
        delta_e_rf=rf.value, delta_e_sr=sr.value, omega_c=wc,
        err_quad=rf.error_estimate + sr.error_estimate,
        err_cutoff=(abs(at_2wc["rf"].value - rf.value)
                    + abs(at_2wc["sr"].value - sr.value)),
        method=method, detail=detail,
    )


def _splitting(spec, kernel, cfg, workspace=None):
    """dE_upper - dE_lower of a two-level system, per mechanism.

    The level shifts come from two dispersion passes on one workspace;
    each error estimate is the sum of theirs.  Returns {mechanism:
    IntegralResult}.
    """
    if spec.n_levels != 2:
        raise ValueError("the level splitting needs a two-level system")
    ws = workspace or ShiftWorkspace(kernel, spec.g, cfg, "both",
                                     _poles(spec))
    hi, lo = (shift_kk(spec, kernel, a, cfg, ws) for a in (1, 0))
    return {m: IntegralResult(hi[m].value - lo[m].value,
                              hi[m].error_estimate + lo[m].error_estimate)
            for m in hi}


def delta_sr_relative(system, kernel, cfg=None, workspace=None):
    """Two-level sr shift difference dE_upper^sr - dE_lower^sr.

    This vanishes identically (the sr shift moves both levels equally);
    the returned IntegralResult carries the numerical residual of the
    dispersion route and its combined error estimate.  The direct route
    needs no such check, as its sr integrand is even in w_ab.
    ``workspace`` may supply a prebuilt ShiftWorkspace of this system,
    kernel and cfg.
    """
    return _splitting(ensure_validated(system), kernel,
                      cfg or QuadratureConfig(), workspace)["sr"]


def lamb_shift_two_level(kernel, g, omega_0, cfg=None):
    """Radiative shift of the two-level splitting, dE_upper - dE_lower.

    The rf shifts of the two levels come from the dispersion route; the
    sr parts cancel (see delta_sr_relative).  The difference equals the
    half-line form

        (1/2pi) int_0^wc gamma_rf(w') [1/(w' + w0) - P/(w' - w0)] dw'.

    omega_0 <= 0 raises ConfigError.
    """
    return _splitting(two_level_system(omega_0, g), kernel,
                      cfg or QuadratureConfig())["rf"]
