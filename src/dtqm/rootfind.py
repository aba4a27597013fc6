"""Root finding for the classical layer: a bracketing scan and Newton iteration."""

import math

import numpy as np

__all__ = ["bracketed_newton", "scan_roots", "newton_solve"]


def bracketed_newton(g, dg, lo, hi, g_lo, g_hi, gtol, xtol=0.0, max_iter=80):
    """Refine a root of g inside [lo, hi] by Newton steps with bisection fallback.

    ``g_lo`` and ``g_hi`` are the already-computed endpoint values and must
    differ in sign (zero endpoints are returned immediately). Newton steps
    are taken only while they stay inside the current bracket and shrink it
    fast enough; otherwise the interval is bisected. ``dg`` is called once
    per step taken, never at the point returned. Returns ``(x, g(x))``; the
    caller decides whether the final residual is acceptable.
    """
    if g_lo == 0.0:
        return lo, 0.0
    if g_hi == 0.0:
        return hi, 0.0
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise ValueError("bracket endpoints must have opposite signs")

    # Orient so that g(xl) < 0 < g(xh).
    if g_lo < 0.0:
        xl, xh = lo, hi
    else:
        xl, xh = hi, lo
    x = 0.5 * (lo + hi)
    dxold = abs(hi - lo)
    dx = dxold
    gx = g(x)
    for _ in range(max_iter):
        if abs(gx) <= gtol:
            return x, gx
        dgx = dg(x)
        newton_leaves = ((x - xh) * dgx - gx) * ((x - xl) * dgx - gx) > 0.0
        too_slow = abs(2.0 * gx) > abs(dxold * dgx)
        if newton_leaves or too_slow or dgx == 0.0:
            dxold = dx
            dx = 0.5 * (xh - xl)
            xnew = xl + dx
        else:
            dxold = dx
            dx = gx / dgx
            xnew = x - dx
        if xnew == x:
            return x, gx
        x = xnew
        gx = g(x)
        if gx < 0.0:
            xl = x
        else:
            xh = x
        if abs(xh - xl) <= xtol:
            return x, gx
    return x, gx


def scan_roots(g, dg, lo, hi, n_scan, gtol, xtol, merge_tol):
    """Every root of g that a scan of [lo, hi] in ``n_scan`` subintervals sees.

    ``g`` and ``dg`` must broadcast over arrays: the ``n_scan + 1`` scan
    values come from one call ``g(xs)`` and only choose the brackets. A scan
    point where g is exactly zero is a root with residual 0.0; every other
    sign change is refined by ``bracketed_newton`` on ``np.float64`` calls,
    and the root's residual is the |g| that refinement ended on. Signs are
    compared, not multiplied, so scan values of any magnitude bracket a
    root. Sorted roots within ``merge_tol`` of the last kept one are merged
    into it, which keeps its residual (0 merges only exact duplicates).
    Returns ``(roots, residuals, xs, gs)``: the merged roots in ascending
    order, their residuals, the scan points and the scan values.
    """
    xs = np.linspace(lo, hi, n_scan + 1)
    gs = np.asarray(g(xs), dtype=float)

    def g_scalar(x):
        return float(g(np.float64(x)))

    def dg_scalar(x):
        return float(dg(np.float64(x)))

    found = [(float(x), 0.0) for x in xs[gs == 0.0]]
    signs = np.sign(gs)
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        root, g_root = bracketed_newton(
            g_scalar, dg_scalar, float(xs[i]), float(xs[i + 1]), float(gs[i]), float(gs[i + 1]), gtol, xtol
        )
        found.append((root, abs(g_root)))

    roots: list[float] = []
    residuals: list[float] = []
    for r, residual in sorted(found):
        if not roots or abs(r - roots[-1]) > merge_tol:
            roots.append(r)
            residuals.append(residual)
    return roots, residuals, xs, gs


def newton_solve(g, jacobian, x0, gtol, max_iter, blowup=math.inf):
    """Newton iteration for a vector root g(x) = 0 from ``x0``.

    Converged once max |g| < ``gtol``. Gives up after ``max_iter`` steps, on
    a singular Jacobian, or when an iterate leaves the box max |x| <=
    ``blowup``. Returns ``(x, residual)``: ``x`` is None when no root was
    found, and ``residual`` is max |g| at the last iterate evaluated.
    """
    x = x0
    for _ in range(max_iter):
        gv = g(x)
        residual = float(np.max(np.abs(gv)))
        if residual < gtol:
            return x, residual
        try:
            step = np.linalg.solve(jacobian(x), gv)
        except np.linalg.LinAlgError:
            return None, residual
        x = x - step
        if float(np.max(np.abs(x))) > blowup:
            break
    return None, float(np.max(np.abs(g(x))))
