"""The per-box least-squares DFA that volint.dfa replaced, kept as the
reference that tests/test_dfa.py compares the projection with.

Each box's polynomial is fitted by numpy.polynomial.polynomial.polyfit
and its values subtracted; the box scheme, the window rule, the floor
rule and the alpha fit are those of volint.dfa.dfa. It does not import
volint.dfa.
"""

import numpy as np

from volint.fitting import linregress


def reference_dfa(series, order=1, windows=None, fit_range=None,
                  integrate=True):
    """(window sizes, F(n), alpha, floor) of the series by per-box polyfit;
    windows whose F(n) is not above floor are left out of the alpha fit."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if windows is None:
        windows = np.unique(np.rint(np.geomspace(8, n // 4, 20)).astype(np.int64))
    windows = np.unique(np.asarray(windows, dtype=np.int64))
    y = np.cumsum(x - x.mean()) if integrate else x - x.mean()
    fluct = np.empty(windows.size, dtype=np.float64)
    for i, w in enumerate(windows):
        w = int(w)
        k = n // w
        segs = np.concatenate([
            y[:k * w].reshape(k, w),
            y[n - k * w:].reshape(k, w),
        ])
        t = np.arange(w, dtype=np.float64)
        coef = np.polynomial.polynomial.polyfit(t, segs.T, order)
        resid = segs.T - np.polynomial.polynomial.polyvander(t, order) @ coef
        fluct[i] = np.sqrt(np.mean(resid * resid))

    if fit_range is None:
        fit_range = (int(windows[0]), int(windows[-1]))
    floor = 1e-10 * (np.abs(y).max() + np.finfo(np.float64).tiny)
    sel = (windows >= fit_range[0]) & (windows <= fit_range[1]) & (fluct > floor)
    if int(sel.sum()) < 2:
        return windows, fluct, float("nan"), floor
    res = linregress(np.log(windows[sel]), np.log(fluct[sel]))
    return windows, fluct, float(res.slope), floor
