"""Oscillatory half-line transforms, principal values, regulator limits.

All reservoir quantities reduce to three numerical primitives:

1.  Half-line Fourier transforms  int_0^umax f(u) {cos, sin}(omega u) du
    of a kernel slice f(u) = f(u; eps).  One adaptive pass serves one
    frequency or a vector of them, the whole regulator schedule and
    every kernel part the caller asks for (such as Cs and Ca); its
    components are omega x eps x part, and each is refined until it
    meets its own tolerance.  The kernel is sampled once per node and
    eps, in blocks of BATCH_BLOCK_PANELS panels, and each panel's
    samples are contracted against the oscillation factors of every
    frequency at once.

    Panel policy: the initial layout puts PANELS_PER_PERIOD panels on
    each period 2 pi / |omega| of the call's largest |omega|, on top of
    a geometric ladder that tracks the short-distance structure of the
    kernel near u = 0.  Each panel is integrated with a 15-point
    Gauss-Legendre rule; the difference against the 7-point rule on the
    same panel serves as the panel error.  The two rules share the
    panel midpoint, so a panel takes NODES_PER_PANEL = 21 samples.
    The adaptive engine keeps panel bounds, values and errors in arrays
    and splits the worst panels in batches until every component meets
    its tolerance or the split budget is spent (SubdivisionLimit).

2.  A regulator limit eps -> 0.  The transform values along a
    decreasing eps schedule come from that one pass and are
    extrapolated polynomially in eps, component by component.
    The leading error model is linear, but the pinned default schedule
    {1e-2, 5e-3, 2.5e-3} leaves a measurable quadratic term for
    omega * eps ~ 0.1, so the schedule is fitted to quadratic order
    whenever three or more samples are available (linear for two).
    The reported residual is the spread between the extrapolation and
    the lower-order fit of the last two samples; it is a deliberate
    overestimate of the true extrapolation error.  The check that
    refuses a non-convergent limit, and the endpoint term and tail
    bound below, are applied to each component.

    Regulator policy: a kernel transform divides the configured
    schedule by max(1, the call's largest |omega|, the kernel's
    spectral scale), so eps * omega stays small at every frequency the
    call and the kernel spectrum reach.  ``rates._kernel_transform`` is
    the one place that applies it, for the rates and for the direct
    shift route alike.

3.  Principal-value integrals by symmetric pole subtraction,

        PV int h(w)/(w - p) dw
            = int [h(w) - h(p)]/(w - p) dw + h(p) ln((hi - p)/(p - lo)),

    with the difference quotient replaced by a central-difference
    h'(p) inside a guard window |w - p| < 1e-6 (hi - lo).

Truncation of the half-line at u_max is compensated by the analytic
endpoint term -f(u_max) sin(omega u_max)/omega (cosine case, sign
flipped for sine); the remaining tail is bounded through a kernel
envelope when one is supplied and folded into the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    CutoffTooSmall,
    InsufficientSamples,
    NonConvergent,
    PoleOnBoundary,
    SingularEvaluation,
    SubdivisionLimit,
)

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
PANELS_PER_PERIOD = 6
LADDER_RATIO = 1.7
PANEL_HARD_CAP = 400_000
# panels per kernel-sampling block; it bounds the working set
BATCH_BLOCK_PANELS = 1024
# GL15 nodes plus the six GL7 nodes off the shared midpoint
NODES_PER_PANEL = 21
# Rounding floor of a converged adaptive sum, in units of eps times the
# sum of |panel values|.  On e^{-a u} {cos, sin}(omega u) against mpmath,
# for a in {0.05, 0.2, 0.8, 3}, a u_max = 60 and omega from 0 to 20 (up
# to 23,000 panels), the largest true error seen was 4.5 such units.
ROUNDING_FLOOR_ULPS = 8.0
# Calibrated floor for declaring the regulator limit non-convergent; the
# raw 100 * rel_tol criterion trips on the benign O((omega*eps)^3)
# curvature left by the default schedule, so a relative floor is added.
NONCONVERGENT_FLOOR = 0.02

_RULE = []


def _panel_rule():
    """The GL15/GL7 pair on [-1, 1], sharing the node x = 0.

    Returns (x, w15, w7, at7, rule): the NODES_PER_PANEL nodes (GL15's
    15, then GL7's six others), the GL15 weights of the first 15, the
    GL7 weights with the indices ``at7`` of their nodes in x, and both
    rules as rows over all nodes: GL15, and GL15 minus GL7.
    """
    if not _RULE:
        x15, w15 = np.polynomial.legendre.leggauss(15)
        x7, w7 = np.polynomial.legendre.leggauss(7)
        off = np.flatnonzero(x7 != 0.0)
        at7 = np.insert(15 + np.arange(off.size), 3, 7)
        rule = np.zeros((2, NODES_PER_PANEL))
        rule[:, :15] = w15
        rule[1, at7] -= w7
        _RULE.extend((np.concatenate([x15, x7[off]]), w15, w7, at7, rule))
    return _RULE


@dataclass
class QuadratureConfig:
    """Tolerances and truncation controls shared by every computation.

    epsilon_schedule : strictly decreasing regulator values used for the
        eps -> 0 extrapolation.
    omega_cutoff : frequency cutoff for shift integrals (required there,
        unused by plain rate evaluations).
    abs_tol, rel_tol : quadrature targets per transform.
    max_subdivisions : budget of adaptive panel splits.
    u_max : optional override of the half-line truncation; by default it
        is chosen from the kernel envelope and the requested frequency.
    """

    epsilon_schedule: tuple = DEFAULT_EPS_SCHEDULE
    omega_cutoff: float = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000
    u_max: float = None

    def __post_init__(self):
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if not sched:
            raise InsufficientSamples("epsilon schedule is empty")
        if any(e <= 0 for e in sched):
            raise ConfigError("epsilon schedule values must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("epsilon schedule must be strictly decreasing")
        self.epsilon_schedule = sched
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ConfigError("tolerances must be positive")


@dataclass
class IntegralResult:
    """Value with an error estimate.

    error_estimate combines quadrature error, truncation tail bound and
    (when applicable) the regulator extrapolation residual.  A transform
    at a vector of frequencies holds arrays aligned with them.
    """

    value: float
    error_estimate: float
    detail: dict = field(default_factory=dict, repr=False)

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# envelopes and truncation

@dataclass
class Envelope:
    """Decreasing bound env(u) on |f| for large u, used for tail bounds.

    kind "power": env(u) = amplitude / u**2, kind "exp":
    env(u) = amplitude * exp(-rate * u).
    """

    kind: str
    amplitude: float
    rate: float = 0.0

    def at(self, u):
        if self.kind == "power":
            return self.amplitude / max(u, 1e-300) ** 2
        return self.amplitude * math.exp(-self.rate * u)

    def integral_beyond(self, u):
        if self.kind == "power":
            return self.amplitude / max(u, 1e-300)
        return self.at(u) / self.rate

    def derivative_at(self, u):
        if self.kind == "power":
            return 2.0 * self.amplitude / max(u, 1e-300) ** 3
        return self.rate * self.at(u)


def tail_bound(envelope, u_max, omega):
    """Bound on the dropped tail of a half-line transform.

    For |omega| u_max >= 1 the analytic endpoint term is applied and the
    remainder is O(|f'(u_max)| / omega^2).  Frequencies too small to
    oscillate within the tail get the plain envelope integral.
    """
    if envelope is None:
        return 0.0
    w = abs(omega)
    no_osc = envelope.integral_beyond(u_max)
    if w * u_max < 1.0:
        return no_osc
    return min(no_osc, 2.0 * envelope.derivative_at(u_max) / w ** 2)


# ---------------------------------------------------------------------------
# panel machinery

def _halfline_breakpoints(omega_max, u_scale, u_max):
    """Panel boundaries for [0, u_max]: geometric ladder + periodic grid."""
    pts = {0.0, u_max}
    u0 = max(u_scale / 32.0, u_max * 1e-13)
    u = u0
    while u < u_max:
        pts.add(u)
        u *= LADDER_RATIO
    w = abs(omega_max)
    if w > 0:
        h = (2.0 * math.pi / w) / PANELS_PER_PERIOD
        n_osc = u_max / h
        if n_osc > PANEL_HARD_CAP:
            raise SubdivisionLimit(
                "initial oscillation grid needs %d panels (cap %d); reduce "
                "u_max or the frequency range" % (int(n_osc), PANEL_HARD_CAP)
            )
        if n_osc >= 1:
            pts.update(np.arange(h, u_max, h))
    bp = np.array(sorted(pts))
    # drop breakpoints that crowd closer than a tiny fraction of a panel
    keep = np.concatenate([[True], np.diff(bp) > 1e-15 * u_max])
    return bp[keep]


def _eval_panels(fw, lo, hi):
    """Integrate a vectorized integrand on each panel [lo_i, hi_i].

    ``fw`` maps nodes, shape (n,), to values of shape (n,), to a stack
    of m integrand components, shape (m, n), or to a factored stack
    (samples, osc): kernel samples of shape (E, P, n) and oscillation
    factors of shape (P, n, W).  The products samples[e, p] *
    osc[p, :, w] are then the m = W * E * P components, ordered
    (w, e, p); they are never formed, as each panel's weighted samples
    are contracted against its oscillation factors by matrix products.
    Panels are taken in blocks of BATCH_BLOCK_PANELS, with one ``fw``
    call on the NODES_PER_PANEL nodes of each panel in the block.
    Returns (values, errors) per panel from the GL15/GL7 pair, shape
    (n_panels,) or (m, n_panels).
    """
    x, w15, w7, at7, rule = _panel_rule()
    vals, errs = [], []
    for b in range(0, lo.size, BATCH_BLOCK_PANELS):
        blk = slice(b, b + BATCH_BLOCK_PANELS)
        mid = 0.5 * (lo[blk] + hi[blk])
        half = 0.5 * (hi[blk] - lo[blk])
        shape = (mid.size, NODES_PER_PANEL)
        out = fw((mid[:, None] + half[:, None] * x[None, :]).ravel())
        if isinstance(out, tuple):
            samples, osc = out
            n_eps, n_parts = samples.shape[:2]
            samples = samples.reshape((n_eps, n_parts) + shape)
            osc = osc.reshape((n_parts,) + shape + (-1,))
            # per rule: (part, panel, eps, node) @ (part, panel, node, omega)
            s = np.stack([np.einsum("epkj,j->pkej", samples, r) @ osc
                          for r in rule])
            # to (rule, omega x eps x part, panel)
            s = s.transpose(0, 4, 3, 1, 2).reshape(2, -1, mid.size)
            # in C order, so that sums over panels run pairwise, not along
            # a strided axis where their rounding grows with the count
            i15, diff = np.ascontiguousarray(half * s)
        else:
            f = np.asarray(out).reshape(np.shape(out)[:-1] + shape)
            i15 = np.sum(half[:, None] * w15[None, :] * f[..., :15], axis=-1)
            diff = i15 - np.sum(half[:, None] * w7[None, :] * f[..., at7],
                                axis=-1)
        vals.append(i15)
        errs.append(np.abs(diff))
    return np.concatenate(vals, axis=-1), np.concatenate(errs, axis=-1)


def _work_counts(n_panels, splits, n_samples, components):
    """Work of one adaptive pass that started from ``n_panels`` panels.

    Every split evaluates two new halves at NODES_PER_PANEL nodes each,
    and each node is sampled once per kernel slice (``n_samples``
    regulator values) for all ``components`` of the integrand.
    """
    return {"components": components, "splits": splits,
            "panels": n_panels + splits,
            "kernel_points": (NODES_PER_PANEL * (n_panels + 2 * splits)
                              * n_samples)}


def integrate_adaptive(fw, breakpoints, abs_tol, rel_tol, max_subdivisions):
    """Globally adaptive panel integration of a vectorized integrand.

    ``fw`` returns one integrand, shape (n,), a stack of m components,
    shape (m, n), or a factored stack (see _eval_panels) on n nodes.
    Batches of the worst panels are split until every component's summed
    panel error meets its own
    max(abs_tol, rel_tol * |value|) or the split budget is exhausted
    (SubdivisionLimit).  A non-finite panel value or error, or a sum
    that overflows, raises SingularEvaluation at once, before any more
    splits.  A batch takes up to 64 panels, ranked by their
    error relative to the tolerance of the components still open, among
    those at or above a quarter of such a component's mean panel error.
    Once converged, each component's error gains the rounding floor
    ROUNDING_FLOOR_ULPS * eps * sum |panel values|, which the stopping
    test does not see.  Returns (value, error, splits_used); value and
    error are floats for one integrand and arrays of shape (m,) for a
    stack.
    """
    bp = np.asarray(breakpoints, dtype=float)
    lo, hi = bp[:-1], bp[1:].copy()
    vals, errs = _eval_panels(fw, lo, hi)
    single = vals.ndim == 1
    vals, errs = np.atleast_2d(vals), np.atleast_2d(errs)
    splits = 0
    while True:
        total = vals.sum(axis=1)
        err = errs.sum(axis=1)
        if not np.all(np.isfinite(total) & np.isfinite(err)):
            bad = ~np.all(np.isfinite(vals) & np.isfinite(errs), axis=0)
            i = np.argmax(bad)
            raise SingularEvaluation(
                "integrand is not finite on the panel [%.6g, %.6g]"
                % (lo[i], hi[i]) if bad[i] else
                "the integral over [%.6g, %.6g] overflows" % (bp[0], bp[-1]))
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        unmet = ~(err <= tol)
        if not unmet.any():
            break
        if splits >= max_subdivisions:
            worst = np.argmax(np.where(unmet, err / tol, -np.inf))
            raise SubdivisionLimit(
                "adaptive quadrature used all %d subdivisions (error %.3e, "
                "tolerance %.3e)" % (max_subdivisions, err[worst], tol[worst])
            )
        e_open = errs[unmet]
        score = np.max(e_open / tol[unmet, None], axis=0)
        floor = 0.25 * err[unmet, None] / lo.size
        cand = np.flatnonzero(np.any(e_open >= floor, axis=0))
        batch = cand[np.lexsort((cand, -score[cand]))][:64]
        mid = 0.5 * (lo[batch] + hi[batch])
        right = hi[batch]
        nvals, nerrs = _eval_panels(fw, np.concatenate([lo[batch], mid]),
                                    np.concatenate([mid, right]))
        nvals, nerrs = np.atleast_2d(nvals), np.atleast_2d(nerrs)
        n = batch.size
        # the left half keeps the panel's slot, the right half is appended
        hi[batch] = mid
        vals[:, batch], errs[:, batch] = nvals[:, :n], nerrs[:, :n]
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, right])
        vals = np.concatenate([vals, nvals[:, n:]], axis=1)
        errs = np.concatenate([errs, nerrs[:, n:]], axis=1)
        splits += n
    err = err + (ROUNDING_FLOOR_ULPS * np.finfo(float).eps
                 * np.sum(np.abs(vals), axis=1))
    if single:
        return float(total[0]), float(err[0]), splits
    return total, err, splits


# ---------------------------------------------------------------------------
# regulator extrapolation

def _polyfit_zero(eps_arr, values, order):
    coeffs = np.polyfit(eps_arr, values, order)
    return coeffs[-1], coeffs  # the fit at eps = 0 is its constant term


def extrapolate_regulator(samples, order=2):
    """Polynomial eps -> 0 extrapolation of (eps, value) samples.

    Returns (v0, residual, weight_l1).  residual is the spread between
    the chosen fit and the linear extrapolation of the last two samples
    (plus any least-squares misfit); weight_l1 bounds how much per-
    sample noise is amplified.  Values may be equal-shape arrays, one
    sequence per eps; v0 and residual are then arrays of that shape.
    Raises InsufficientSamples for fewer than two samples and
    ConfigError unless eps is positive and strictly decreasing.
    """
    if len(samples) < 2:
        raise InsufficientSamples(
            "need at least two (eps, value) samples, got %d" % len(samples)
        )
    eps = np.array([e for e, _ in samples], dtype=float)
    vals = np.array([v for _, v in samples], dtype=float)
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("regulator samples must have positive, strictly "
                          "decreasing eps; fix the epsilon schedule")
    shape = vals.shape[1:]
    vals = vals.reshape(eps.size, -1)  # one column per sequence
    p = min(order, len(samples) - 1)
    v0, coeffs = _polyfit_zero(eps, vals, p)
    misfit = np.max(np.abs(np.polyval(coeffs, eps[:, None]) - vals), axis=0)
    v_lin = _polyfit_zero(eps[-2:], vals[-2:], 1)[0] if p >= 1 else vals[-1]
    residual = np.abs(v0 - v_lin) + misfit
    # l1 norm of the Lagrange weights at 0 for the exact-fit case
    if p == len(samples) - 1:
        wts = []
        for k in range(len(eps)):
            others = np.delete(eps, k)
            wts.append(np.prod((0.0 - others) / (eps[k] - others)))
        weight_l1 = float(np.sum(np.abs(wts)))
    else:
        weight_l1 = float(len(samples))
    if not shape:
        return float(v0[0]), float(residual[0]), weight_l1
    return v0.reshape(shape), residual.reshape(shape), weight_l1


def _check_convergent(v0, residual, scale_hint, cfg):
    """Refuse a regulator limit whose residual is too large (per component)."""
    scale = np.maximum(np.maximum(np.abs(v0), 0.1 * scale_hint),
                       1e4 * cfg.abs_tol)
    tol = max(100.0 * cfg.rel_tol, NONCONVERGENT_FLOOR) * scale
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        raise NonConvergent(
            "regulator extrapolation residual %.3e exceeds tolerance at value "
            "%.3e; decrease the epsilon schedule or omega"
            % (residual.flat[bad[0]], v0.flat[bad[0]])
        )


# ---------------------------------------------------------------------------
# half-line transforms

def halfline_transform(f, omega, cfg, kind, *, u_max, u_scale, envelope=None,
                       eps_schedule=None):
    """Half-line cos/sin transform of a kernel slice with eps -> 0 limit.

    One adaptive pass covers every frequency, the whole eps schedule and
    every kernel part: each node is sampled once per eps, and each
    component (omega, eps, part) is refined until it meets its own
    tolerance.

    Parameters
    ----------
    f : callable (u_array, eps) -> array of shape (n,), or a stack of k
        kernel parts of shape (k, n).
    omega : transform frequency, or a 1-d array of them.
    cfg : QuadratureConfig
    kind : "cos" or "sin"; for a stacked f, a sequence of them, one per
        part.
    u_max, u_scale, envelope : truncation point, short-distance scale
        near u = 0 to resolve, and tail envelope (see Envelope).
    eps_schedule : overrides cfg.epsilon_schedule; a one-entry schedule
        gives a single evaluation at that eps, without extrapolation.

    Returns an IntegralResult, or for a sequence ``kind`` a tuple of
    them, one per part; for an array ``omega`` their values and errors
    are arrays aligned with it.  Each detail holds u_max and the pass's
    work: components (frequencies times eps values times parts), splits,
    panels and kernel_points (nodes times eps values); an extrapolated
    result adds its (eps, value) samples.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    sched = tuple(eps_schedule) if eps_schedule is not None else cfg.epsilon_schedule
    u_cap = float(u_max)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    n_eps, n_parts = len(sched), len(kinds)
    trig = {"cos": np.cos, "sin": np.sin}

    def parts(u, eps):
        return np.reshape(f(u, eps), (n_parts, -1))

    def fw(u):
        osc = np.empty((n_parts, u.size, om.size))
        phase = np.multiply.outer(u, om, out=osc[-1])  # overwritten last
        for p, k in enumerate(kinds):
            trig[k](phase, out=osc[p])
        return np.stack([parts(u, eps) for eps in sched]), osc

    bp = _halfline_breakpoints(np.max(np.abs(om)), u_scale, u_cap)
    raw, qerr, splits = integrate_adaptive(
        fw, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    raw = raw.reshape(om.size, n_eps, n_parts)
    qerr = qerr.reshape(om.size, n_eps, n_parts)
    work = _work_counts(bp.size - 1, splits, n_eps, raw.size)
    corrected = np.abs(om) * u_cap >= 1.0
    if corrected.any():
        w = om[corrected, None, None]
        f_end = np.stack([parts(np.array([u_cap]), eps)[:, 0]
                          for eps in sched])
        edge = np.concatenate([-np.sin(w * u_cap) if k == "cos"
                               else np.cos(w * u_cap) for k in kinds], axis=-1)
        raw[corrected] += f_end * edge / w
        work["kernel_points"] += n_eps
    tails = [tail_bound(envelope, u_cap, w) for w in om]
    qerr += np.reshape(tails, (-1, 1, 1))
    detail = dict(work, u_max=u_cap)
    if n_eps == 1:
        value, err = raw[:, 0], qerr[:, 0]
    else:
        value, residual, wl1 = extrapolate_regulator(
            list(zip(sched, raw.swapaxes(0, 1))), order=2)
        err = residual + wl1 * np.max(qerr, axis=1)
        _check_convergent(value, residual, np.max(np.abs(raw), axis=1), cfg)

    def shaped(a):
        return float(a[0]) if np.ndim(omega) == 0 else a

    out = []
    for j in range(n_parts):
        d = dict(detail)
        if n_eps > 1:
            d["samples"] = [(eps, shaped(raw[:, i, j]))
                            for i, eps in enumerate(sched)]
        out.append(IntegralResult(shaped(value[:, j]), shaped(err[:, j]),
                                  detail=d))
    return out[0] if isinstance(kind, str) else tuple(out)


# ---------------------------------------------------------------------------
# principal values and Kramers-Kronig

def _pv_breakpoints(lo, hi, pole, guard, extra=()):
    span = hi - lo
    pts = {lo, hi, pole}
    step = span / 16.0
    pts.update(np.arange(lo + step, hi, step))
    d = max(min(pole - lo, hi - pole) / 2.0, guard)
    while d > guard:
        for s in (pole - d, pole + d):
            if lo < s < hi:
                pts.add(s)
        d /= 2.0
    for s in extra:
        if lo < s < hi:
            pts.add(float(s))
    return np.array(sorted(pts))


def pv_integral(h, pole, lo, hi, cfg, *, h_error=None, extra_breakpoints=()):
    """PV int_lo^hi h(w) / (w - pole) dw by symmetric pole subtraction.

    ``h`` maps an array of n points to one function, shape (n,), or to
    a stack of m, shape (m, n); each component meets its own tolerance.
    One call at (pole, pole -/+ guard) gives the pole value and the
    guard-window derivative.  ``h_error`` may supply a pointwise error
    bound on h, shaped like it, which is propagated through the quotient
    with the pole distance floored at the guard window.
    ``extra_breakpoints`` seeds panel boundaries at known kinks of h.
    The IntegralResult holds floats, or arrays of shape (m,) for a stack;
    its detail holds the pass's work: components, splits, panels and
    kernel_points (the samples of h, the three at the pole included).
    """
    lo, hi, pole = float(lo), float(hi), float(pole)
    span = hi - lo
    if span <= 0:
        raise PoleOnBoundary("empty integration interval [%g, %g]" % (lo, hi))
    guard = 1e-6 * span
    if pole - lo <= guard or hi - pole <= guard:
        raise PoleOnBoundary(
            "pole %g sits on the boundary of [%g, %g]" % (pole, lo, hi)
        )
    at_pole = np.asarray(h(np.array([pole, pole - guard, pole + guard])))
    hp = at_pole[..., :1]
    dh = (at_pole[..., 2:] - at_pole[..., 1:2]) / (2.0 * guard)

    def subtracted(w):
        d = w - pole
        near = np.abs(d) < guard
        safe = np.where(near, 1.0, d)
        out = (np.asarray(h(w)) - hp) / safe
        return np.where(near, dh, out)

    bp = _pv_breakpoints(lo, hi, pole, guard, extra_breakpoints)
    value, err, splits = integrate_adaptive(
        subtracted, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    work = _work_counts(bp.size - 1, splits, 1, hp.size)
    work["kernel_points"] += 3
    value = value + hp[..., 0] * math.log((hi - pole) / (pole - lo))
    if h_error is not None:
        def quotient_err(w):
            d = np.maximum(np.abs(w - pole), guard)
            return np.asarray(h_error(w)) / d
        ebp = np.array(sorted({lo, hi, pole - guard, pole + guard,
                               *np.linspace(lo, hi, 33)}))
        evals, _ = _eval_panels(quotient_err, ebp[:-1], ebp[1:])
        err = err + np.sum(np.abs(evals), axis=-1)
    if at_pole.ndim == 1:
        return IntegralResult(float(value), float(err), work)
    return IntegralResult(value, err, work)


def kk_real_from_imag(f_imag, omega, cfg):
    """Reconstruct Re f(omega) from Im f by a truncated Hilbert transform.

    Re f(omega) = (1/pi) PV int_{-wc}^{wc} Im f(w') / (w' - omega) dw'.
    The error estimate adds the magnitude of the outermost panel on each
    side as a crude bound for the dropped |w'| > wc tail.
    """
    if cfg.omega_cutoff is None:
        raise CutoffTooSmall("omega_cutoff must be set for a KK transform")
    wc = float(cfg.omega_cutoff)
    res = pv_integral(f_imag, omega, -wc, wc, cfg)
    err = res.error_estimate / math.pi
    edge = wc / 16.0
    vals, _ = _eval_panels(lambda w: np.asarray(f_imag(w)) / (w - omega),
                           np.array([-wc, wc - edge]),
                           np.array([edge - wc, wc]))
    err += float(np.sum(np.abs(vals))) / math.pi
    return IntegralResult(res.value / math.pi, err,
                          detail={"omega_cutoff": wc})
