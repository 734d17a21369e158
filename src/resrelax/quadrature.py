"""Oscillatory half-line transforms, principal values, regulator limits.

All reservoir quantities reduce to three numerical primitives:

1.  Half-line Fourier transforms  int_0^umax f(u) {cos, sin}(omega u) du
    of a kernel slice f(u) = f(u; eps), taken in one adaptive pass for
    the whole regulator schedule and, where the caller wants several,
    for every kernel part (such as the symmetric and antisymmetric
    parts feeding the two shift mechanisms).  The panel layout has a
    fixed budget of panels per oscillation period (at least 16 per
    2 pi / |omega|) on top of a geometric ladder that tracks the
    short-distance structure of the kernel near u = 0.  Each panel is
    integrated with a 15-point Gauss-Legendre rule; the difference
    against the 7-point rule on the same panel serves as the panel
    error.  The kernel is sampled once per node and eps, in blocks of
    BATCH_BLOCK_PANELS panels, and every sample feeds all parts.  The
    adaptive engine keeps panel bounds, values and errors in arrays and
    splits the worst panels in batches until each component (one eps
    and one part) meets its own tolerance.

2.  A regulator limit eps -> 0.  The transform values along a
    decreasing eps schedule come from that one pass and are
    extrapolated polynomially in eps, part by part.
    The leading error model is linear, but the pinned default schedule
    {1e-2, 5e-3, 2.5e-3} leaves a measurable quadratic term for
    omega * eps ~ 0.1, so the schedule is fitted to quadratic order
    whenever three or more samples are available (linear for two).
    The reported residual is the spread between the extrapolation and
    the lower-order fit of the last two samples; it is a deliberate
    overestimate of the true extrapolation error.  The check that
    refuses a non-convergent limit, and the endpoint term and tail
    bound below, are applied to each part.

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
    SubdivisionLimit,
)

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
PANELS_PER_PERIOD = 16
LADDER_RATIO = 1.7
PANEL_HARD_CAP = 400_000
# panels per kernel-sampling block (both engines; it bounds the working
# set) and per frequency-contraction chunk of the batch transform
BATCH_BLOCK_PANELS = 1024
BATCH_CHUNK_PANELS = 64
# Calibrated floor for declaring the regulator limit non-convergent; the
# raw 100 * rel_tol criterion trips on the benign O((omega*eps)^3)
# curvature left by the default schedule, so a relative floor is added.
NONCONVERGENT_FLOOR = 0.02

_GL_CACHE = {}


def _gl(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


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
    (when applicable) the regulator extrapolation residual.
    """

    value: float
    error_estimate: float
    eps_extrapolated: bool = False
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


def tail_bound(envelope, u_max, omega, corrected):
    """Bound on the dropped tail of a half-line transform.

    With the analytic endpoint term applied the remainder is
    O(|f'(u_max)| / omega^2); otherwise O(env(u_max)/|omega|).  For
    frequencies too small to oscillate within the tail the plain
    envelope integral is used.
    """
    if envelope is None:
        return 0.0
    w = abs(omega)
    no_osc = envelope.integral_beyond(u_max)
    if w * u_max < 1.0 or w == 0.0:
        return no_osc
    if corrected:
        return min(no_osc, 2.0 * envelope.derivative_at(u_max) / w ** 2)
    return min(no_osc, 2.0 * envelope.at(u_max) / w)


# ---------------------------------------------------------------------------
# panel machinery

def _halfline_breakpoints(omega_max, u_scale, u_max, max_panels=PANEL_HARD_CAP,
                          panels_per_period=PANELS_PER_PERIOD):
    """Panel boundaries for [0, u_max]: geometric ladder + periodic grid."""
    pts = {0.0, u_max}
    u0 = max(u_scale / 32.0, u_max * 1e-13)
    u = u0
    while u < u_max:
        pts.add(u)
        u *= LADDER_RATIO
    w = abs(omega_max)
    if w > 0:
        h = (2.0 * math.pi / w) / panels_per_period
        n_osc = u_max / h
        if n_osc > max_panels:
            raise SubdivisionLimit(
                "initial oscillation grid needs %d panels (cap %d); "
                "reduce u_max or the frequency range" % (int(n_osc), max_panels)
            )
        if n_osc >= 1:
            pts.update(np.arange(h, u_max, h))
    bp = np.array(sorted(pts))
    # drop breakpoints that crowd closer than a tiny fraction of a panel
    keep = np.concatenate([[True], np.diff(bp) > 1e-15 * u_max])
    return bp[keep]


def _panel_nodes(lo, hi, order):
    x, w = _gl(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def _eval_panels(fw, lo, hi):
    """Integrate a vectorized integrand on each panel [lo_i, hi_i].

    ``fw`` maps nodes, shape (n,), to values of shape (n,) or to a stack
    of m integrand components, shape (m, n).  Panels are taken in blocks
    of BATCH_BLOCK_PANELS, with one ``fw`` call on the 22 GL15 and GL7
    nodes of each panel in the block.  Returns (values, errors) per
    panel from the GL15/GL7 pair, shape (n_panels,) or (m, n_panels).
    """
    vals, errs = [], []
    for b in range(0, lo.size, BATCH_BLOCK_PANELS):
        blk = slice(b, b + BATCH_BLOCK_PANELS)
        n15, w15 = _panel_nodes(lo[blk], hi[blk], 15)
        n7, w7 = _panel_nodes(lo[blk], hi[blk], 7)
        out = np.asarray(fw(np.concatenate([n15.ravel(), n7.ravel()])))
        lead = out.shape[:-1]
        f15 = out[..., :n15.size].reshape(lead + n15.shape)
        f7 = out[..., n15.size:].reshape(lead + n7.shape)
        i15 = np.sum(w15 * f15, axis=-1)
        vals.append(i15)
        errs.append(np.abs(i15 - np.sum(w7 * f7, axis=-1)))
    return np.concatenate(vals, axis=-1), np.concatenate(errs, axis=-1)


def _work_counts(n_panels, splits, n_samples, components):
    """Work of one adaptive pass that started from ``n_panels`` panels.

    Every split evaluates two new halves at 22 nodes each, and each node
    is sampled once per kernel slice (``n_samples`` regulator values)
    for all ``components`` of the integrand.
    """
    return {"components": components, "splits": splits,
            "panels": n_panels + splits,
            "kernel_points": 22 * (n_panels + 2 * splits) * n_samples}


def integrate_adaptive(fw, breakpoints, abs_tol, rel_tol, max_subdivisions):
    """Globally adaptive panel integration of a vectorized integrand.

    ``fw`` returns one integrand, shape (n,), or a stack of m components,
    shape (m, n), on n nodes.  Batches of the worst panels are split
    until every component's summed panel error meets its own
    max(abs_tol, rel_tol * |value|) or the split budget is exhausted
    (SubdivisionLimit).  A batch takes up to 64 panels, ranked by their
    error relative to the tolerance of the components still open, among
    those at or above a quarter of such a component's mean panel error.
    Returns (value, error, splits_used); value and error are floats for
    one integrand and arrays of shape (m,) for a stack.
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
        if cand.size:
            batch = cand[np.lexsort((cand, -score[cand]))][:64]
        else:  # a NaN error leaves no candidate; split towards the budget
            batch = np.array([np.argmax(score)])
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
    """
    if len(samples) < 2:
        raise InsufficientSamples(
            "need at least two (eps, value) samples, got %d" % len(samples)
        )
    eps = np.array([e for e, _ in samples], dtype=float)
    vals = np.array([v for _, v in samples], dtype=float)
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise NonConvergent("regulator samples must have strictly decreasing eps")
    p = min(order, len(samples) - 1)
    v0, coeffs = _polyfit_zero(eps, vals, p)
    at_eps = eps.reshape((-1,) + (1,) * (vals.ndim - 1))
    misfit = np.max(np.abs(np.polyval(coeffs, at_eps) - vals), axis=0)
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
    if vals.ndim == 1:
        return float(v0), float(residual), weight_l1
    return v0, residual, weight_l1


def richardson_extrapolate(values):
    """Linear-in-eps Richardson extrapolation of [(eps, value), ...].

    Fits v(eps) = v0 + c * eps (least squares beyond two samples) and
    returns (v0, residual) with residual the maximum deviation from the
    fit.  Raises InsufficientSamples for fewer than two samples.
    """
    if len(values) < 2:
        raise InsufficientSamples(
            "need at least two (eps, value) samples, got %d" % len(values)
        )
    eps = np.array([e for e, _ in values], dtype=float)
    vals = np.array([v for _, v in values], dtype=float)
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise NonConvergent("regulator samples must have strictly decreasing eps")
    v0, coeffs = _polyfit_zero(eps, vals, 1)
    residual = float(np.max(np.abs(np.polyval(coeffs, eps) - vals)))
    return float(v0), residual


def _check_convergent(v0, residual, scale_hint, cfg):
    scale = max(abs(v0), 0.1 * scale_hint, 1e4 * cfg.abs_tol)
    if residual > max(100.0 * cfg.rel_tol, NONCONVERGENT_FLOOR) * scale:
        raise NonConvergent(
            "regulator extrapolation residual %.3e exceeds tolerance at value "
            "%.3e; decrease the epsilon schedule or omega" % (residual, v0)
        )


# ---------------------------------------------------------------------------
# half-line transforms

def _resolve_u_max(cfg, u_max, f, eps):
    if u_max is not None:
        return float(u_max)
    if cfg.u_max is not None:
        return float(cfg.u_max)
    # probe outward for decay when nothing better is known
    for u in (30.0, 100.0, 300.0, 1000.0, 3000.0):
        if np.max(np.abs(f(np.array([u]), eps))) < cfg.abs_tol:
            return u
    return 10000.0


def halfline_transform(f, omega, cfg, kind, *, u_max=None, u_scale=None,
                       envelope=None, eps_schedule=None,
                       endpoint_correction=True, carrier=0.0,
                       extrapolate=True):
    """Half-line cos/sin transform of a kernel slice with eps -> 0 limit.

    One adaptive pass covers the whole eps schedule and every kernel
    part: each node is sampled once per eps, and each component (eps,
    part) is refined until it meets its own tolerance.

    Parameters
    ----------
    f : callable (u_array, eps) -> array of shape (n,), or a stack of k
        kernel parts of shape (k, n).
    omega : transform frequency.
    cfg : QuadratureConfig
    kind : "cos" or "sin"; for a stacked f, a sequence of them, one per
        part.
    u_max, u_scale, envelope : truncation point, short-distance scale
        near u = 0 to resolve, and tail envelope (see Envelope).
    eps_schedule : overrides cfg.epsilon_schedule.
    endpoint_correction : apply the analytic boundary term at u_max.
    carrier : internal oscillation frequency of f itself, if any, so the
        panel grid resolves it.
    extrapolate : evaluate the full schedule and extrapolate; otherwise
        a single evaluation at the first schedule entry is returned.

    Returns an IntegralResult, or for a sequence ``kind`` a tuple of
    them, one per part.  Each detail holds u_max and the pass's work:
    components (eps values times parts), splits, panels and
    kernel_points (nodes times eps values); an extrapolated result adds
    its (eps, value) samples.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    sched = tuple(eps_schedule) if eps_schedule is not None else cfg.epsilon_schedule
    u_cap = _resolve_u_max(cfg, u_max, f, sched[0])
    scale = u_scale if u_scale is not None else max(sched[-1], u_cap * 1e-6)
    if not extrapolate:
        sched = sched[:1]
    w = float(omega)
    n_eps, n_parts = len(sched), len(kinds)

    def parts(u, eps):
        return np.reshape(f(u, eps), (n_parts, -1))

    def fw(u):
        osc = np.stack([np.cos(w * u) if k == "cos" else np.sin(w * u)
                        for k in kinds])
        return np.concatenate([parts(u, eps) * osc for eps in sched])

    bp = _halfline_breakpoints(abs(w) + abs(carrier), scale, u_cap)
    raw, qerr, splits = integrate_adaptive(
        fw, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    raw = raw.reshape(n_eps, n_parts)
    qerr = qerr.reshape(n_eps, n_parts)
    work = _work_counts(bp.size - 1, splits, n_eps, raw.size)
    corrected = (endpoint_correction and abs(w) * u_cap >= 1.0
                 and carrier == 0.0)
    if corrected:
        f_end = np.stack([parts(np.array([u_cap]), eps)[:, 0]
                          for eps in sched])
        edge = np.array([-math.sin(w * u_cap) if k == "cos"
                         else math.cos(w * u_cap) for k in kinds])
        raw += f_end * edge / w
        work["kernel_points"] += n_eps
    w_eff = abs(abs(carrier) - abs(w)) if carrier else abs(w)
    qerr += tail_bound(envelope, u_cap, w_eff, corrected)
    detail = dict(work, u_max=u_cap)
    if n_eps == 1:
        out = tuple(IntegralResult(float(raw[0, j]), float(qerr[0, j]),
                                   eps_extrapolated=False, detail=dict(detail))
                    for j in range(n_parts))
    else:
        v0, residual, wl1 = extrapolate_regulator(list(zip(sched, raw)),
                                                  order=2)
        scale_hint = np.max(np.abs(raw), axis=0)
        err = residual + wl1 * np.max(qerr, axis=0)
        out = []
        for j in range(n_parts):
            _check_convergent(v0[j], residual[j], scale_hint[j], cfg)
            samples = [(eps, float(v)) for eps, v in zip(sched, raw[:, j])]
            out.append(IntegralResult(float(v0[j]), float(err[j]),
                                      eps_extrapolated=True,
                                      detail=dict(detail, samples=samples)))
        out = tuple(out)
    return out[0] if isinstance(kind, str) else out


# ---------------------------------------------------------------------------
# batched transforms over many frequencies (shared kernel samples)

def _batch_panel_sums(f, eps_list, lo, hi, om, kind, stats):
    """GL15 sums of f(u; eps) * trig(omega u) over the panels [lo_i, hi_i].

    The kernel is sampled once per eps and trig(omega u) once per
    (omega, node) for all eps.  Panels are taken in blocks of
    BATCH_BLOCK_PANELS for the kernel samples and the frequency axis is
    contracted in chunks of BATCH_CHUNK_PANELS, so the working set stays
    small.  Returns (raw, qerr, worst): raw and qerr, shape
    (n_eps, n_omega), sum the panel values and the GL15/GL7 differences;
    worst, shape (n_eps, n_panels), is the largest difference over the
    frequencies.
    """
    trig = np.cos if kind == "cos" else np.sin
    n_eps, n_panels = len(eps_list), lo.size
    if stats is not None:
        stats["panels"] = stats.get("panels", 0) + n_eps * n_panels
        stats["points"] = stats.get("points", 0) + n_eps * n_panels * 22
    raw = np.zeros((n_eps, om.size))
    qerr = np.zeros((n_eps, om.size))
    worst = np.empty((n_eps, n_panels))
    for b in range(0, n_panels, BATCH_BLOCK_PANELS):
        blk = slice(b, b + BATCH_BLOCK_PANELS)
        n15, w15 = _panel_nodes(lo[blk], hi[blk], 15)
        n7, w7 = _panel_nodes(lo[blk], hi[blk], 7)
        nodes = np.concatenate([n15.ravel(), n7.ravel()])
        samples = np.stack([f(nodes, e) for e in eps_list])
        wf15 = w15 * samples[:, :n15.size].reshape((n_eps,) + n15.shape)
        wf7 = w7 * samples[:, n15.size:].reshape((n_eps,) + n7.shape)
        for c in range(0, n15.shape[0], BATCH_CHUNK_PANELS):
            sl = slice(c, c + BATCH_CHUNK_PANELS)
            i15 = np.einsum("kpj,epj->ekp", trig(om[:, None, None] * n15[sl]),
                            wf15[:, sl])
            i7 = np.einsum("kpj,epj->ekp", trig(om[:, None, None] * n7[sl]),
                           wf7[:, sl])
            diff = np.abs(i15 - i7)
            raw += i15.sum(axis=2)
            qerr += diff.sum(axis=2)
            worst[:, b + c:b + c + BATCH_CHUNK_PANELS] = diff.max(axis=1)
    return raw, qerr, worst


def batch_halfline_transform(f, omegas, kind, cfg, eps, *, u_max, u_scale,
                             envelope=None, endpoint_correction=True,
                             refine_rounds=3, panels_per_period=6,
                             stats=None):
    """Transform one kernel slice at many frequencies on a shared grid.

    The panel layout is built once for the largest |omega| in the batch
    (coarser per period than the scalar path, which the embedded high-
    order rule tolerates) and refined where the error estimate is worst
    across the batch.  ``eps`` is one regulator value or a sequence of
    them; all of them share the layout, which is refined wherever any
    eps still misses its tolerance (an eps that meets it keeps its
    values from that round).  Returns (values, errors) aligned with
    ``omegas``, with a leading eps axis when ``eps`` is a sequence.
    ``stats``, a dict, accumulates the evaluated panels and kernel
    points (per eps).
    """
    scalar_eps = np.ndim(eps) == 0
    eps_list = [float(eps)] if scalar_eps else [float(e) for e in eps]
    om = np.asarray(omegas, dtype=float).ravel()
    n_eps = len(eps_list)
    if om.size == 0:
        shape = (0,) if scalar_eps else (n_eps, 0)
        return np.zeros(shape), np.zeros(shape)
    w_layout = float(np.max(np.abs(om)))
    bp = _halfline_breakpoints(w_layout, u_scale, u_max,
                               panels_per_period=panels_per_period)
    lo, hi = bp[:-1], bp[1:]
    raw = np.empty((n_eps, om.size))
    qerr = np.empty((n_eps, om.size))
    active = np.arange(n_eps)
    for round_no in range(refine_rounds):
        r, q, worst = _batch_panel_sums(f, [eps_list[i] for i in active],
                                        lo, hi, om, kind, stats)
        raw[active] = r
        qerr[active] = q
        total_err = worst.sum(axis=1)
        vmax = np.max(np.abs(r), axis=1)
        missed = total_err > np.maximum(cfg.abs_tol, 0.1 * cfg.rel_tol * vmax)
        if not missed.any() or round_no == refine_rounds - 1:
            break
        worst, total_err = worst[missed], total_err[missed]
        cut = np.maximum(worst.max(axis=1) * 0.05, total_err / lo.size)
        split = np.any(worst > cut[:, None], axis=0)
        if not split.any():
            break
        active = active[missed]
        mids = 0.5 * (lo[split] + hi[split])
        bp = np.unique(np.concatenate([lo, hi, mids]))
        lo, hi = bp[:-1], bp[1:]
    corrected = np.zeros(om.size, dtype=bool)
    if endpoint_correction:
        corrected = (np.abs(om) * u_max >= 1.0) & (om != 0.0)
        wc = om[corrected]
        f_end = np.array([float(f(np.array([u_max]), e)[0])
                          for e in eps_list])
        if kind == "cos":
            edge = -np.sin(wc * u_max) / wc
        else:
            edge = np.cos(wc * u_max) / wc
        raw[:, corrected] += f_end[:, None] * edge[None, :]
    qerr += np.array([tail_bound(envelope, u_max, w, c)
                      for w, c in zip(om, corrected)])
    if scalar_eps:
        return raw[0], qerr[0]
    return raw, qerr


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

    ``h`` must accept numpy arrays.  ``h_error`` may supply a pointwise
    error bound on h, which is propagated through the quotient with the
    pole distance floored at the guard window.  ``extra_breakpoints``
    seeds panel boundaries at known kinks of h.
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
    hp = float(np.asarray(h(np.array([pole])))[0])
    hleft = float(np.asarray(h(np.array([pole - guard])))[0])
    hright = float(np.asarray(h(np.array([pole + guard])))[0])
    dh = (hright - hleft) / (2.0 * guard)

    def subtracted(w):
        d = w - pole
        near = np.abs(d) < guard
        safe = np.where(near, 1.0, d)
        out = (np.asarray(h(w)) - hp) / safe
        return np.where(near, dh, out)

    bp = _pv_breakpoints(lo, hi, pole, guard, extra_breakpoints)
    value, qerr, _ = integrate_adaptive(
        subtracted, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    value += hp * math.log((hi - pole) / (pole - lo))
    err = qerr
    if h_error is not None:
        def quotient_err(w):
            d = np.maximum(np.abs(w - pole), guard)
            return np.asarray(h_error(w)) / d
        ebp = np.array(sorted({lo, hi, pole - guard, pole + guard,
                               *np.linspace(lo, hi, 33)}))
        evals, _ = _eval_panels(quotient_err, ebp[:-1], ebp[1:])
        err += float(np.sum(np.abs(evals)))
    return IntegralResult(value, err)


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
    for sgn in (-1.0, 1.0):
        a = sgn * wc - (edge if sgn > 0 else 0.0)
        b = a + edge
        vals, _ = _eval_panels(
            lambda w: np.asarray(f_imag(w)) / (w - omega), np.array([a]),
            np.array([b])
        )
        err += abs(float(vals[0])) / math.pi
    return IntegralResult(res.value / math.pi, err,
                          detail={"omega_cutoff": wc})
