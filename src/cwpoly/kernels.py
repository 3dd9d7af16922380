"""Float-mode iteration kernel.

The involute iteration is the one hot numeric loop in this package (the
exact-rational path is bound by bignum arithmetic instead and stays in pure
Python).  ``_step_numpy`` is its one float step, vectorised with numpy.

One step maps the current vertex-world central polygon M(k) to the
edge-world involute N(k+1) (alpha ladder, beta window sums, shift along the
dual ball) and back to M(k+1) (edge coefficients, mu window sums, shift
along the primal ball), returning the two exact-identity area gaps.
"""
from __future__ import annotations

import numpy as np


def _step_numpy(cur, u, v, e_dets, v_dets, out_n, out_m):
    m = cur.shape[0]
    n = m // 2
    du = np.roll(u, -1, axis=0) - u
    dom = np.abs(du[:, 0]) >= np.abs(du[:, 1])
    dm = np.roll(cur, -1, axis=0) - cur
    alpha = np.where(dom, dm[:, 0], dm[:, 1]) / np.where(dom, du[:, 0], du[:, 1])
    terms = np.concatenate([alpha * e_dets] * 2)
    cs = np.concatenate([[0.0], np.cumsum(terms)])
    idx = np.arange(m)
    beta = 0.5 * (cs[idx + n] - cs[idx])
    out_n[:] = cur + beta[:, None] * v
    gap_mn = float(np.sum(beta[:n] ** 2 * v_dets[:n]))

    dv = v - np.roll(v, 1, axis=0)
    dom = np.abs(dv[:, 0]) >= np.abs(dv[:, 1])
    dn = out_n - np.roll(out_n, 1, axis=0)
    b = np.where(dom, dn[:, 0], dn[:, 1]) / np.where(dom, dv[:, 0], dv[:, 1])
    terms = np.concatenate([b * v_dets] * 2)
    cs = np.concatenate([[0.0], np.cumsum(terms)])
    mu = -0.5 * (cs[idx + n + 1] - cs[idx + 1])
    out_m[:] = out_n + mu[:, None] * u
    gap_nm = float(np.sum(mu[:n] ** 2 * e_dets[:n]))
    return gap_mn, gap_nm


def _signed_area(x) -> float:
    return -0.5 * float(np.sum(x[:, 0] * np.roll(x[:, 1], -1) - x[:, 1] * np.roll(x[:, 0], -1)))


def _diameter(x) -> float:
    diff = x[:, None, :] - x[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))


def iterate_float(m0, u, v, max_steps: int, tol: float):
    """Drive the float iteration; returns (steps, Ms, Ns, stats).

    Ms[k], Ns[k] are the (2n, 2) vertex arrays of M(k) and N(k) (Ns[0] is a
    copy of Ms[0]; the k = 0 edge-world polygon is the caller's business).
    stats[k] = (SA_M, SA_N, gap_MN, gap_NM, diam_M, diam_N) where gap_MN is
    SA(M(k-1)) - SA(N(k)) and gap_NM is SA(N(k)) - SA(M(k)), zeros at k = 0.
    """
    m0 = np.ascontiguousarray(m0, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    e_dets = u[:, 0] * np.roll(u[:, 1], -1) - u[:, 1] * np.roll(u[:, 0], -1)
    v_dets = np.roll(v[:, 0], 1) * v[:, 1] - np.roll(v[:, 1], 1) * v[:, 0]

    ms = [m0.copy()]
    ns = [m0.copy()]
    stats = [[_signed_area(m0), _signed_area(m0), 0.0, 0.0, _diameter(m0), _diameter(m0)]]
    k = 0
    best = stats[0][4]
    while stats[k][4] >= tol and k < max_steps:
        out_n = np.empty_like(m0)
        out_m = np.empty_like(m0)
        gap_mn, gap_nm = _step_numpy(ms[k], u, v, e_dets, v_dets, out_n, out_m)
        diam = _diameter(out_m)
        # far past convergence, rounding noise leaves the exact invariant
        # subspace and is amplified by the ladder sums; cut the run off once
        # the diameter turns back up instead of producing float garbage
        if not np.isfinite(diam) or diam > 8.0 * best + 1e-300:
            break
        ns.append(out_n)
        ms.append(out_m)
        stats.append([_signed_area(out_m), _signed_area(out_n), gap_mn, gap_nm,
                      diam, _diameter(out_n)])
        k += 1
        best = min(best, diam)
    return k, np.array(ms), np.array(ns), np.array(stats)
