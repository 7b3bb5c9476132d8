"""LOESS (locally weighted regression) smoothing.

This is the smoother underlying STL (Cleveland et al., 1990).  We implement
local linear regression with the tricube kernel and optional robustness
weights, on arbitrary (not necessarily regular) abscissae.

Only the pieces STL needs are implemented: degree 0 or 1 local fits, a
nearest-``q`` neighbourhood bandwidth, and evaluation either at the input
points or at arbitrary query points.

The uniform-grid fast path operates on a ``(B, n)`` value matrix so that
batched STL can smooth every block's series in one sliding-window pass
(:func:`loess_smooth_batch`); the 1-D entry point routes through the same
code with ``B == 1``, which is what makes per-block and batched results
bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["loess_smooth", "loess_smooth_batch", "tricube"]

# cap the (rows, nout, q) sliding-window temporaries at ~2 MB per array:
# small enough to stay in cache between the window's products and sums
# (every reduction is per row, so the chunking never moves a bit)
_CHUNK_ELEMS = 250_000


def tricube(u: np.ndarray) -> np.ndarray:
    """Tricube kernel ``(1 - |u|^3)^3`` clipped outside ``|u| < 1``."""
    a = np.clip(np.abs(u), 0.0, 1.0)
    return (1.0 - a**3) ** 3


def _neighbourhood(x: np.ndarray, x0: float, q: int) -> tuple[np.ndarray, float]:
    """Indices of the ``q`` nearest points to ``x0`` and the max distance.

    When ``q`` exceeds the number of points, all points are used and the
    bandwidth is inflated as in the original STL implementation so that the
    fit degrades gracefully toward a global regression.
    """
    n = x.size
    dist = np.abs(x - x0)
    if q >= n:
        h = dist.max() * (q / max(n, 1))
        return np.arange(n), max(h, 1e-12)
    # q nearest points via partial sort
    idx = np.argpartition(dist, q - 1)[:q]
    h = dist[idx].max()
    return idx, max(h, 1e-12)


def _sorted_window(x: np.ndarray, x0: float, q: int) -> tuple[int, int, float]:
    """Contiguous window of the ``q`` nearest points in a sorted array.

    Returns ``(lo, hi, bandwidth)`` with the window ``x[lo:hi]``.  For
    sorted abscissae the nearest-``q`` neighbourhood is always contiguous,
    which makes LOESS O(n*q) instead of O(n^2).
    """
    n = x.size
    if q >= n:
        h = max(abs(x0 - x[0]), abs(x[-1] - x0)) * (q / max(n, 1))
        return 0, n, max(h, 1e-12)
    pos = int(np.searchsorted(x, x0))
    lo = max(pos - q, 0)
    hi = min(pos + q, n)
    window = x[lo:hi]
    dist = np.abs(window - x0)
    keep = np.argpartition(dist, q - 1)[:q]
    w_lo = lo + int(keep.min())
    w_hi = lo + int(keep.max()) + 1
    h = float(dist[keep].max())
    return w_lo, w_hi, max(h, 1e-12)


def _loess_uniform(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    *,
    degree: int,
    xout: np.ndarray,
    robustness_weights: np.ndarray | None,
) -> np.ndarray | None:
    """Vectorized LOESS for a uniform grid, batched over rows.

    On a uniform grid the nearest-``q`` neighbourhood of a query point is
    the centered window clipped at the edges, and every window shares one
    offset pattern, so the whole fit reduces to sliding-window matrix
    arithmetic.  ``y`` and ``robustness_weights`` may be ``(n,)`` or
    ``(B, n)``; the output has the matching leading shape.  ``xout`` may be
    any set of points aligned to the grid of ``x``, including points
    outside it — the cycle-subseries extension ``-1..m`` lands here instead
    of the scalar loop, with windows and bandwidths identical to
    :func:`_sorted_window`'s (the farthest-point distance is always >= one
    grid step, so the >=1 bandwidth clamp is inert).  Row results do not
    depend on the batch size (every reduction is a per-row sum over
    ``q < 128`` window elements, which numpy sums sequentially), so batched
    rows are bit-identical to one-at-a-time calls.  Returns ``None`` when
    the fast path does not apply.

    ``robustness_weights=None`` means all-ones (STL's first outer pass,
    and every non-robust smoother): the weight matrix is then the shared
    ``(nout, q)`` tricube pattern, so ``sw``/``swx``/``swxx`` are
    row-independent and computed once.  Multiplying by an exact 1.0 is
    the identity in IEEE arithmetic, so this branch is bit-identical to
    passing an explicit ones matrix.
    """
    n = x.size
    if n < 3 or q >= n:
        return None
    dx = x[1] - x[0]
    if dx <= 0 or not np.allclose(np.diff(x), dx, rtol=1e-9, atol=0):
        return None
    if xout is x:
        gpos = np.arange(n)
    else:
        g = (xout - x[0]) / dx
        rounded = np.rint(g)
        if not np.allclose(g, rounded, rtol=0, atol=1e-6):
            return None
        gpos = rounded.astype(np.intp)

    starts = np.clip(gpos - (q - 1) // 2, 0, n - q)
    rel = np.arange(q)[None, :] + (starts - gpos)[:, None]  # offsets in grid units
    h = np.maximum(np.abs(rel).max(axis=1), 1)[:, None].astype(np.float64)
    base_w = tricube(rel / h)
    xc = rel * dx

    from numpy.lib.stride_tricks import sliding_window_view

    y2 = np.atleast_2d(y)
    rw2 = (
        None
        if robustness_weights is None
        else np.atleast_2d(robustness_weights)
    )
    nout = gpos.size
    out = np.empty((y2.shape[0], nout), dtype=np.float64)
    if rw2 is None:
        # the weight matrix is row-independent: fold it once
        ones_sw = base_w.sum(axis=-1)
        ones_wxc = base_w * xc
        ones_swx = ones_wxc.sum(axis=-1)
        ones_swxx = (ones_wxc * xc).sum(axis=-1)
    step = max(_CHUNK_ELEMS // max(nout * q, 1), 1)
    for lo in range(0, y2.shape[0], step):
        rows = slice(lo, lo + step)
        y_win = sliding_window_view(y2[rows], q, axis=-1)[:, starts, :]
        if rw2 is None:
            w, wxc = base_w, None
            sw, swx, swxx = ones_sw, ones_swx, ones_swxx
        else:
            rw_win = sliding_window_view(rw2[rows], q, axis=-1)[:, starts, :]
            w = base_w * rw_win
            sw = w.sum(axis=-1)
        swy = (w * y_win).sum(axis=-1)
        safe_sw = np.maximum(sw, 1e-300)
        if degree == 0:
            block = swy / safe_sw
        else:
            if rw2 is None:
                swxy = (ones_wxc * y_win).sum(axis=-1)
            else:
                wxc = w * xc
                swx = wxc.sum(axis=-1)
                swxx = (wxc * xc).sum(axis=-1)
                swxy = (wxc * y_win).sum(axis=-1)
            denom = sw * swxx - swx * swx
            ok = np.abs(denom) > 1e-12 * np.maximum(sw * swxx, 1e-12)
            slope = np.where(
                ok, (sw * swxy - swx * swy) / np.where(ok, denom, 1.0), 0.0
            )
            block = (swy - slope * swx) / safe_sw
        # windows whose weights all vanished fall back to the plain window mean
        dead = sw <= 0
        if dead.any():
            if rw2 is None:
                block[:, dead] = y_win[:, dead, :].mean(axis=-1)
            else:
                block[dead] = y_win[dead].mean(axis=-1)
        out[rows] = block
    return out if y.ndim == 2 else out[0]


def loess_smooth(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    *,
    degree: int = 1,
    xout: np.ndarray | None = None,
    robustness_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Smooth ``y`` observed at ``x`` with LOESS.

    Parameters
    ----------
    x, y:
        Sample abscissae and values, same length.  ``x`` need not be
        regular but must be finite.
    q:
        Neighbourhood size in points (the STL smoothing parameter).
    degree:
        Local polynomial degree, 0 (weighted mean) or 1 (weighted line).
    xout:
        Points at which to evaluate; defaults to ``x``.
    robustness_weights:
        Optional per-sample weights from STL's outer loop.

    Returns
    -------
    numpy.ndarray of smoothed values at ``xout``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if x.size == 0:
        return np.array([], dtype=np.float64)
    q = max(int(q), 2)
    if xout is None:
        xout = x
    xout = np.asarray(xout, dtype=np.float64)
    rw_in = (
        None
        if robustness_weights is None
        else np.asarray(robustness_weights, dtype=np.float64)
    )

    fast = _loess_uniform(x, y, q, degree=degree, xout=xout, robustness_weights=rw_in)
    if fast is not None:
        return fast

    rw = np.ones_like(y) if rw_in is None else rw_in
    sorted_x = x.size < 2 or bool(np.all(np.diff(x) > 0))

    out = np.empty(xout.size, dtype=np.float64)
    for j, x0 in enumerate(xout):
        if sorted_x:
            lo, hi, h = _sorted_window(x, x0, q)
            xi = x[lo:hi]
            yi = y[lo:hi]
            w = tricube((xi - x0) / h) * rw[lo:hi]
        else:
            idx, h = _neighbourhood(x, x0, q)
            xi = x[idx]
            yi = y[idx]
            w = tricube((xi - x0) / h) * rw[idx]
        wsum = w.sum()
        if wsum <= 0:
            # all neighbourhood weights vanished (heavy robustness
            # down-weighting); fall back to the unweighted local mean
            out[j] = float(np.mean(yi))
            continue
        if degree == 0:
            out[j] = float(np.dot(w, yi) / wsum)
            continue
        # weighted linear fit around x0
        xc = xi - x0
        sw = wsum
        swx = float(np.dot(w, xc))
        swxx = float(np.dot(w, xc * xc))
        swy = float(np.dot(w, yi))
        swxy = float(np.dot(w, xc * yi))
        denom = sw * swxx - swx * swx
        if abs(denom) < 1e-12 * max(sw * swxx, 1e-12):
            out[j] = swy / sw
        else:
            slope = (sw * swxy - swx * swy) / denom
            intercept = (swy - slope * swx) / sw
            out[j] = intercept  # evaluated at xc = 0
    return out


def loess_smooth_batch(
    x: np.ndarray,
    values: np.ndarray,
    q: int,
    *,
    degree: int = 1,
    xout: np.ndarray | None = None,
    robustness_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise :func:`loess_smooth` over a ``(B, n)`` value matrix.

    Every row's result is identical to ``loess_smooth(x, values[i], ...)``:
    the uniform-grid fast path computes per-row reductions that do not
    depend on the batch size, and inputs that miss the fast path fall back
    to the scalar smoother one row at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or x.ndim != 1 or values.shape[1] != x.size:
        raise ValueError("values must be a (B, n) matrix with n matching x")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if xout is None:
        xout = x
    xout = np.asarray(xout, dtype=np.float64)
    if values.shape[0] == 0:
        return np.empty((0, xout.size), dtype=np.float64)
    if x.size == 0:
        return np.empty((values.shape[0], 0), dtype=np.float64)
    q = max(int(q), 2)
    rw_in = (
        None
        if robustness_weights is None
        else np.asarray(robustness_weights, dtype=np.float64)
    )
    if rw_in is not None and rw_in.shape != values.shape:
        raise ValueError("robustness_weights must match the shape of values")

    fast = _loess_uniform(
        x, values, q, degree=degree, xout=xout, robustness_weights=rw_in
    )
    if fast is not None:
        return fast
    return np.stack(
        [
            loess_smooth(
                x,
                values[i],
                q,
                degree=degree,
                xout=xout,
                robustness_weights=None if rw_in is None else rw_in[i],
            )
            for i in range(values.shape[0])
        ]
    )
