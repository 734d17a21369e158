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
takes one pass per partner level b in which every sample serves both
mechanisms: a PV pass on the stacked rf and sr integrands of one
ShiftWorkspace, or an adaptive pass that samples Cs and Ca together at
each node and eps.

Cutoff semantics: the frequency cutoff wc of QuadratureConfig bounds
the dispersion integral.  So that both paths regularize identically,
the direct path for vacuum kernels integrates the band-limited kernel
(spectrum sharply windowed to |w| < wc, finite at eps = 0) instead of
the raw one: the inertial window's ringing up to the phase wc u = 80,
on 40 panels at every wc, then analytic sine/cosine-integral tails.  An
accelerated trajectory adds the raw rf transform of its Unruh excess,
less the excess's cutoff remainder R (see _cutoff_remainder).  Kernels
whose spectra already decay (ThermalOhmic, Tabulated) are integrated
raw; their direct path has no cutoff dependence.  This windowing choice
is the largest interpretation decision in the package and is what makes
"KK equals direct" hold at finite cutoff.

Every shift carries two error fields: err_quad (quadrature, regulator
and interpolation) and err_cutoff, summed over the mechanisms.  Per
mechanism, err_cutoff is the sensitivity |dE(2 wc) - dE(wc)|, the
dispersion integral over the band wc < |w'| < 2 wc, on every route that
depends on wc; that is all of it for a vacuum kernel.  For a decaying
spectrum with closed-form rate coefficients the dispersion route raises
it to at least |R| + err(R), where R is the part beyond wc that the
direct path includes.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import (CutoffTooSmall, NonConvergent, RoundingFloor,
                     SingularEvaluation, SubdivisionLimit, _log)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    _halfline_breakpoints,
    _work_counts,
    integrate_adaptive,
    pv_integral,
)
from .rates import (MECHANISMS, _kernel_transform, _require_finite,
                    rate_coefficients)
from .system import transition_elements, two_level_system

# the ring segment ends at phase _RING_PHASE of wc u, 3 panels per period
_RING_PHASE = 80.0
_RING_PANELS = 40


def _log_pass(what, work, start):
    """One debug line: the work counts of a pass and its time."""
    _log(__name__, "debug", "%s: %d components, %d panels, %d kernel "
         "points, %d splits, %.3f s", what, work["components"],
         work["panels"], work["kernel_points"], work["splits"],
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


def _stacked(coeffs):
    """(values, errors) of {mechanism: IntegralResult}, stacked."""
    return (np.stack([coeffs[m].value for m in MECHANISMS]),
            np.stack([coeffs[m].error_estimate for m in MECHANISMS]))


class ShiftWorkspace:
    """Rate coefficients of both mechanisms over [0, 2 wc].

    ``mechanism`` must be "both"; ``coefficient`` and
    ``coefficient_error`` stack the mechanisms in the order of MECHANISMS.
    A kernel with closed-form rate coefficients is evaluated exactly
    wherever the dispersion integral asks.  Any other kernel is sampled
    once on a frequency grid, both mechanisms from the same kernel
    samples, and interpolated by a cubic spline; ``stats`` holds the
    work counts of that sampling.  One workspace serves every level, the
    cutoff band up to 2 wc, and all principal-value poles of a system:
    the scalar-kernel coefficient gamma(w') does not depend on the level
    pair.
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
            _log(__name__, "debug",
                 "rf+sr workspace: exact rate coefficients, no grid")
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
        vals, errs = _stacked(coeffs)
        n = grid.size
        self._spline = CubicSpline(grid, vals[:, :n], axis=1)
        self._err_spline = CubicSpline(grid, errs[:, :n], axis=1)
        self.interp_error = np.max(
            np.abs(vals[:, n:] - self._spline(probes)), axis=1)
        _log_pass("rf+sr workspace, %d grid points" % n, self.stats, start)

    def _exact(self, omega):
        return _stacked(rate_coefficients(self._kernel, omega, self._g,
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

def shift_kk(system, kernel, a, cfg=None, workspace=None):
    """Energy shifts of level ``a`` from the dispersion integral.

    Returns {"rf": ..., "sr": ...}, both from one PV pass per partner
    level on the stack of their integrands, at cfg's cutoff.  A prebuilt
    ShiftWorkspace lends its coefficients to every level; without one, a
    workspace of both mechanisms is built.
    """
    cfg = cfg or QuadratureConfig()
    ws = workspace or ShiftWorkspace(kernel, system.g, cfg, "both",
                                     _poles(system))
    wc = ws.omega_c
    total, err = np.zeros((2, len(MECHANISMS)))
    for el in transition_elements(system, a):
        m = el.strength
        if m == 0.0 or system.g == 0.0:
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

    The ring segment [0, _RING_PHASE / wc] of both mechanisms comes from
    one adaptive pass on _RING_PANELS uniform panels, so its layout and
    work do not depend on the cutoff.  Returns ({mechanism: (value,
    error)}, work counts).
    """
    w = float(omega_ab)
    aw = abs(w)

    def ring_f(u):
        cs, ca = window.ring(u)
        return np.stack([cs * np.sin(w * u), ca * np.cos(w * u)])

    span = _RING_PHASE / window.omega_c
    ring_val, ring_err, splits = integrate_adaptive(
        ring_f, np.linspace(0.0, span, _RING_PANELS + 1), cfg.abs_tol,
        cfg.rel_tol, cfg.max_subdivisions)
    rf_tail = (math.copysign(1.0, w) * window.ring_tail_sin_cs(span, aw)
               if w != 0.0 else 0.0)
    out = {"rf": (ring_val[0] + rf_tail, ring_err[0]),
           "sr": (ring_val[1] + window.ring_tail_cos_ca(span, aw),
                  ring_err[1])}
    return out, _work_counts(_RING_PANELS, splits, 1, len(MECHANISMS))


def _direct_raw(kernel, omega_ab, cfg, g, kinds=("sin", "cos")):
    """Transforms of a raw spectrum that decays on its own, in one pass.

    ``kinds`` transform Cs and, if there are two, Ca: rf alone or both
    mechanisms.  A kernel sample or panel sum that is not finite fails
    the pass at once, without numpy's overflow warnings, with a
    SingularEvaluation that names the knobs.  Returns ({mechanism:
    (value, error)}, work counts).
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            res = _kernel_transform(kernel, omega_ab, cfg, kinds)
    except SingularEvaluation as exc:
        raise SingularEvaluation(
            "direct shifts are not finite at g = %g (%s); reduce system.g "
            "or the [reservoir] parameters" % (g, exc)) from None
    return ({mech: (r.value, r.error_estimate)
             for mech, r in zip(MECHANISMS, res)}, res[0].detail)


def shift_direct(system, kernel, a, cfg=None):
    """Energy shifts of level ``a`` evaluated in the time domain.

    Returns {"rf": ..., "sr": ...}, both mechanisms taken from one pass
    per partner level that shares every kernel sample.
    """
    cfg = cfg or QuadratureConfig()
    total = dict.fromkeys(MECHANISMS, 0.0)
    err = dict.fromkeys(MECHANISMS, 0.0)
    if system.g != 0.0:
        wc = _require_cutoff(cfg, _poles(system))
        window = kernel.band_limited(wc)
        excess = window.excess if window is not None else None
        g2 = system.g * system.g
        for el in transition_elements(system, a):
            m = el.strength
            if m == 0.0:
                continue
            start = time.perf_counter()
            parts, work = (_direct_windowed(window, el.omega_ab, cfg)
                           if window is not None else
                           _direct_raw(kernel, el.omega_ab, cfg, system.g))
            if excess is not None:  # Ca = 0: the excess pass is rf's alone
                raw, more = _direct_raw(excess, el.omega_ab, cfg, system.g,
                                        ["sin"])
                parts["rf"] = tuple(np.add(parts["rf"], raw["rf"]))
                work = {key: work[key] + more[key] for key in work}
            _log_pass("direct pass at omega %.6g" % el.omega_ab, work, start)
            for mech, (v, e) in parts.items():
                total[mech] += g2 * m * v
                err[mech] += g2 * m * e
        if excess is not None:  # less its part beyond wc, once per level
            rem = _cutoff_remainder(system, excess, a, wc, cfg)["rf"]
            total["rf"] -= rem.value
            err["rf"] += rem.error_estimate
    return _require_finite({mech: IntegralResult(total[mech], err[mech])
                            for mech in MECHANISMS}, system.g, "direct shifts")


# ---------------------------------------------------------------------------
# the dispersion integral beyond the cutoff

def _cutoff_remainder(spec, kernel, a, wc, cfg, workspace=None, band=False):
    """The part of level ``a``'s dispersion integral beyond |w'| = wc, or
    with ``band`` in wc < |w'| < 2 wc.

    For a kernel whose spectrum decays on its own, the dispersion route
    at the cutoff wc misses, per mechanism,

        R = (1/2pi) sum_b int_{|w'| > wc} h_b(w') / (w' - w_ab) dw'.

    Folding w' < -wc onto w' > wc through the even rf and odd sr
    extensions leaves gamma_rf(w) 2 w_ab / (w^2 - w_ab^2) and gamma_sr(w)
    2 w / (w^2 - w_ab^2), with no pole as |w_ab| < wc.  One adaptive pass
    on w = wc / t, t in (0, 1], integrates both from the closed-form
    coefficients, and their pointwise error bounds alongside.  The band,
    dE(2 wc) - dE(wc), is the same pass on t in [1/2, 1], finite for any
    spectrum, from the coefficients of ``workspace`` if given.  Returns
    {mechanism: IntegralResult}; coefficients that do not decay, so that
    R diverges, raise NonConvergent (a tolerance below rounding does not).
    """
    els = transition_elements(spec, a)
    m = np.array([el.strength for el in els])[:, None]
    q = np.array([el.omega_ab for el in els])[:, None]

    def f(t):
        w = wc / t
        c, c_err = ((workspace.coefficient(w), workspace.coefficient_error(w))
                    if workspace is not None else
                    _stacked(rate_coefficients(kernel, w, spec.g, cfg)))
        # -2 m_b / (2 pi (w^2 - w_ab^2)) per partner, times dw/dt = wc/t^2
        k = -2.0 * m / (w * w - q * q) * (wc / (2.0 * math.pi * t * t))
        k = np.stack([2.0 * q * k, 2.0 * w * k])
        return np.concatenate([np.sum(k, axis=1) * c,
                               np.sum(np.abs(k), axis=1) * c_err])

    # the band on 4 uniform panels; R on geometric panels toward t = 0
    # from t = wc * origin_scale (at most 1), where a spectrum that decays
    # on the kernel's scale has its structure
    panels = np.linspace(0.5, 1.0, 5) if band else _halfline_breakpoints(
        min(wc * kernel.origin_scale(0.0), 1.0), 1.0)
    n = len(MECHANISMS)
    start = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value, err, splits = integrate_adaptive(
                f, panels, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)
    except (SingularEvaluation, SubdivisionLimit) as exc:
        if band or isinstance(exc, RoundingFloor):
            raise  # a finite band, or a tolerance below rounding
        raise NonConvergent(
            "the dispersion integral beyond omega_cutoff %g does not "
            "converge (%s); a kernel without a band-limited variant needs "
            "rate coefficients that decay" % (wc, exc)) from None
    _log_pass("cutoff %s %.6g to %.6g at level %d" % (
        "band" if band else "remainder", wc, 2.0 * wc if band else math.inf,
        a), _work_counts(panels.size - 1, splits, 1, 2 * n), start)
    return {mech: IntegralResult(float(value[j]),
                                 float(err[j] + value[n + j]))
            for j, mech in enumerate(MECHANISMS)}


# ---------------------------------------------------------------------------
# assembled results

class ShiftResult:
    """Both mechanism shifts of one level with error diagnostics."""

    __slots__ = ("a", "label", "delta_e_rf", "delta_e_sr", "omega_c",
                 "err_quad", "err_cutoff", "method", "detail")

    def __init__(self, a, label, delta_e_rf, delta_e_sr, omega_c, err_quad,
                 err_cutoff, method="kk", detail=None):
        self.a = a
        self.label = label
        self.delta_e_rf = delta_e_rf
        self.delta_e_sr = delta_e_sr
        self.omega_c = omega_c
        self.err_quad = err_quad
        self.err_cutoff = err_cutoff
        self.method = method
        self.detail = {} if detail is None else detail

    @property
    def total(self):
        return self.delta_e_rf + self.delta_e_sr


def compute_shift(system, kernel, a, cfg=None, method="kk", workspace=None):
    """ShiftResult for level index ``a``.

    method "kk" uses the dispersion path, "direct" the time-domain path,
    "both" reports kk values plus the cross-path residual in detail.
    err_cutoff sums detail["err_cutoff"], each mechanism's cutoff error
    as the module docstring defines it, from the band dE(2 wc) - dE(wc)
    in detail["cutoff_band"] and the remainder R beyond wc in
    detail["cutoff_remainder"] where the route takes them (see
    _cutoff_remainder).  ``workspace`` may supply a prebuilt "both"
    ShiftWorkspace of this system, kernel and cfg.
    """
    cfg = cfg or QuadratureConfig()
    poles = _poles(system)
    wc = _require_cutoff(cfg, poles)
    detail, ws = {}, None
    if method in ("kk", "both"):
        ws = workspace or ShiftWorkspace(kernel, system.g, cfg, "both", poles)
        shifts = shift_kk(system, kernel, a, cfg, ws)
    if method in ("direct", "both"):
        direct = shift_direct(system, kernel, a, cfg)
        if method == "direct":
            shifts = direct
        else:
            detail["kk_vs_direct_residual"] = max(
                abs(shifts[m].value - direct[m].value) for m in MECHANISMS)
    cutoff = dict.fromkeys(MECHANISMS, 0.0)
    windowed = kernel.band_limited(wc) is not None
    if method != "direct" or windowed:
        band = detail["cutoff_band"] = _cutoff_remainder(
            system, kernel, a, wc, cfg, ws, band=True)
        cutoff = {m: abs(band[m].value) for m in MECHANISMS}
    if (method != "direct" and not windowed
            and kernel.rate_coefficients(0.0) is not None):
        rem = detail["cutoff_remainder"] = _cutoff_remainder(
            system, kernel, a, wc, cfg)
        cutoff = {m: max(cutoff[m], abs(rem[m].value) + rem[m].error_estimate)
                  for m in MECHANISMS}
    detail["err_cutoff"] = cutoff
    rf, sr = shifts["rf"], shifts["sr"]
    return ShiftResult(
        a=a, label=system.labels[a],
        delta_e_rf=rf.value, delta_e_sr=sr.value, omega_c=wc,
        err_quad=rf.error_estimate + sr.error_estimate,
        err_cutoff=cutoff["rf"] + cutoff["sr"],
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
    return _splitting(system, kernel,
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
