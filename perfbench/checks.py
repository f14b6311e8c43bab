"""Output checks for the benchmark, computed with plain numpy.

Every value a check compares against is recomputed here from the program's
outputs (coefficients, ensembles, study rows) without calling the package's
own evaluation, gradient, noise or statistics code, or it is a property the
method must have (the calibration trace, the fixed-point residual, the
inverse round trip).  No check compares against a stored copy of an earlier
output.

A check is a dict ``{"name", "ok", "value", "limit"}``; ``figure`` entries
carry a measured number that is reported but does not gate.
"""

from __future__ import annotations

import itertools

import numpy as np

# Stream rule the package documents for its Brownian increments; the noise
# below is regenerated from this description, so a changed rule must show.
STREAM_RULE = ("philox2x64 key=(seed,path); step m uses uniform doubles "
               "(2m,2m+1) via box-muller, first d normals")

GRADIENT_TARGET = 0.5       # sup |grad u| certificate of the transform
ELLIPTICITY_FLOOR = 0.5     # lower singular value of sigma = I + grad u
PHI_TOL = 1e-8              # X + u(t, X) = Y
STEP_TOL = 1e-8             # one Euler step of Y, rebuilt from its parts
ROUND_TRIP_TOL = 2e-12      # psi(phi(x)) = x
PAD = 4                     # off-grid refinement factor


def check(name: str, ok: bool, value: float, limit: float | None = None) -> dict:
    return {"name": name, "ok": bool(ok), "value": float(value),
            "limit": None if limit is None else float(limit)}


def figure(name: str, value: float) -> dict:
    return {"name": name, "ok": True, "value": float(value), "limit": None,
            "figure": True}


# --- Fourier sums -------------------------------------------------------------


def wavenumbers(n: int, period: float) -> np.ndarray:
    """FFT-ordered angular wavenumbers 2 pi k / L, k = 0..N/2-1, -N/2..-1."""
    return np.fft.fftfreq(n, 1.0 / n) * (2.0 * np.pi / period)


def gradient_coeffs(coeffs: np.ndarray, period: float) -> np.ndarray:
    """d_j c_i as coefficients, ordered (i, j) row-major.

    The Nyquist plane of the differentiated axis is dropped: its i*k image
    has no Hermitian partner, and the transform's Jacobian field (the one the
    simulator evaluates) is built under the same convention.
    """
    n = coeffs.shape[-1]
    d = coeffs.ndim - 1
    k = wavenumbers(n, period)
    k[n // 2] = 0.0
    out = []
    for comp in coeffs:
        for axis in range(d):
            shape = [1] * d
            shape[axis] = n
            out.append(comp * (1j * k).reshape(shape))
    return np.stack(out)


def phases(x: np.ndarray, n: int, period: float) -> np.ndarray:
    """exp(i k x) for the FFT-ordered k, shape (P, N).

    Powers of z = exp(i 2 pi x / L) by a running product (k = 1..N/2), the
    negative k by conjugation; rounding grows like k * eps, far below the
    tolerances of the checks, and it is 8x faster than N complex exponentials.
    """
    half = n // 2
    z = np.exp(2j * np.pi / period * x)
    pos = np.cumprod(np.broadcast_to(z[:, None], (x.size, half)), axis=1)
    e = np.empty((x.size, n), dtype=complex)
    e[:, 0] = 1.0
    e[:, 1:half] = pos[:, :half - 1]
    e[:, half:] = np.conj(pos[:, ::-1])         # k = -N/2 .. -1
    return e


def fourier_sum(coeffs: np.ndarray, pts: np.ndarray, period: float) -> np.ndarray:
    """Re sum_k c_k exp(i k.x) at points (P, d); coeffs (C,)+(N,)*d -> (P, C)."""
    n = coeffs.shape[-1]
    d = coeffs.ndim - 1
    e0 = phases(pts[:, 0], n, period)
    if d == 1:
        return (e0 @ coeffs.T).real
    e1 = phases(pts[:, 1], n, period)
    return np.einsum("pk,ckl,pl->pc", e0, coeffs, e1).real


def padded_values(coeffs: np.ndarray, pad: int) -> np.ndarray:
    """Values of the trigonometric interpolant on a pad-times finer grid.

    coeffs (C,)+(N,)*d in FFT order; returns (C,)+(pad*N,)*d real values.
    """
    n = coeffs.shape[-1]
    d = coeffs.ndim - 1
    fine_n = pad * n
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % fine_n
    fine = np.zeros((coeffs.shape[0],) + (fine_n,) * d, dtype=complex)
    fine[np.ix_(np.arange(coeffs.shape[0]), *([idx] * d))] = coeffs
    axes = tuple(range(1, d + 1))
    return np.fft.ifftn(fine, axes=axes).real * fine_n ** d


def jacobian_sup(u_coeffs: np.ndarray, period: float, pad: int = 1) -> float:
    """sup over nodes and a pad-times refined grid of ||grad u||_2.

    u_coeffs has shape (M+1, d)+(N,)*d.  pad = 1 samples the grid nodes the
    package certifies; pad > 1 samples between them.
    """
    d = u_coeffs.shape[1]
    worst = 0.0
    for node in u_coeffs:
        vals = padded_values(gradient_coeffs(node, period), pad)
        jac = np.moveaxis(vals.reshape((d, d) + vals.shape[1:]), (0, 1), (-2, -1))
        worst = max(worst, float(np.linalg.norm(jac, 2, axis=(-2, -1)).max()))
    return worst


# --- Brownian increments from the documented stream rule ----------------------


def brownian_increments(seed: int, paths: int, steps: int, d: int,
                        horizon: float) -> np.ndarray:
    """(paths, steps, d) increments under STREAM_RULE."""
    out = np.empty((paths, steps, d))
    for p in range(paths):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
        uni = gen.random((steps, 2))
        radius = np.sqrt(-2.0 * np.log(1.0 - uni[:, 0]))
        normals = np.stack([radius * np.cos(2.0 * np.pi * uni[:, 1]),
                            radius * np.sin(2.0 * np.pi * uni[:, 1])], axis=-1)
        out[p] = normals[:, :d] * np.sqrt(horizon / steps)
    return out


# --- checks on the transform -------------------------------------------------


def calibration_checks(lam: float, trace) -> list:
    """Doubling from 1: every earlier gradient above target, the last not."""
    lams = [t[0] for t in trace]
    grads = [t[1] for t in trace]
    doubling = lams == [2.0 ** i for i in range(len(lams))] and lams[-1] == lam
    earlier = min(grads[:-1], default=np.inf)
    return [
        check("calibration.doubling_from_1", doubling, len(lams)),
        check("calibration.earlier_above_target", earlier > GRADIENT_TARGET,
              earlier, GRADIENT_TARGET),
        check("calibration.accepted_at_or_below_target",
              grads[-1] <= GRADIENT_TARGET, grads[-1], GRADIENT_TARGET),
    ]


def certificate_checks(u_coeffs: np.ndarray, period: float) -> list:
    """The gradient certificate, recomputed at the grid nodes and off-grid.

    In 1-D both are gated.  In 2-D the package certifies grid nodes only, and
    the off-grid value of its interpolant is reported as a figure.
    """
    d = u_coeffs.shape[1]
    node = jacobian_sup(u_coeffs, period, 1)
    off = jacobian_sup(u_coeffs, period, PAD)
    out = [check("certificate.grid_nodes", node <= GRADIENT_TARGET, node, GRADIENT_TARGET)]
    if d == 1:
        out.append(check("certificate.off_grid_x4", off <= GRADIENT_TARGET, off,
                         GRADIENT_TARGET))
    else:
        out.append(figure("certificate.off_grid_x4", off))
    return out


def residual_check(residual: float, tol: float) -> dict:
    """Unweighted mild residual ||v - I(v)|| of the accepted solve."""
    return check("solve.unweighted_residual", residual <= 2.0 * tol, residual, 2.0 * tol)


def round_trip_check(worst: float) -> dict:
    return check("transform.psi_phi_round_trip", worst <= ROUND_TRIP_TOL, worst,
                 ROUND_TRIP_TOL)


# --- checks along the simulated paths -----------------------------------------


def path_checks(u_coeffs: np.ndarray, period: float, lam: float, y: np.ndarray,
                x: np.ndarray, seed: int, horizon: float, stream_rule: str) -> list:
    """Checks of the transformed ensemble Y against the virtual ensemble X.

    u_coeffs (M+1, d)+(N,)*d on the same time nodes as the paths (M equal to
    the step count); y, x of shape (paths, M+1, d).  Checks, at every node:
    X + u(t, X) = Y; the Euler step Y' - Y = (lam+1) u dt + (I + grad u) dW
    with dW rebuilt from the stream rule; and the lower singular value of
    I + grad u stays at or above 1/2.
    """
    paths, nodes, d = y.shape
    steps = nodes - 1
    if u_coeffs.shape[0] != nodes:
        raise ValueError("paths and u must share their time nodes")
    dt = horizon / steps
    dw = brownian_increments(seed, paths, steps, d, horizon)
    phi_gap = step_defect = 0.0
    sigma_min = np.inf
    for m in range(nodes):
        c = u_coeffs[m]
        vals = fourier_sum(np.concatenate([c, gradient_coeffs(c, period)]), x[:, m], period)
        u = vals[:, :d]
        phi_gap = max(phi_gap, float(np.abs(x[:, m] + u - y[:, m]).max()))
        if m == steps:
            break
        sigma = vals[:, d:].reshape(paths, d, d) + np.eye(d)
        if d == 1:
            smallest = np.abs(sigma[:, 0, 0])
        else:
            smallest = np.linalg.svd(sigma, compute_uv=False)[:, -1]
        sigma_min = min(sigma_min, float(smallest.min()))
        step = (lam + 1.0) * u * dt + np.einsum("pij,pj->pi", sigma, dw[:, m])
        step_defect = max(step_defect, float(np.abs(y[:, m + 1] - y[:, m] - step).max()))
    return [
        check("paths.stream_rule_documented", stream_rule == STREAM_RULE, 0.0),
        check("paths.phi_x_equals_y", phi_gap <= PHI_TOL, phi_gap, PHI_TOL),
        check("paths.euler_step", step_defect <= STEP_TOL, step_defect, STEP_TOL),
        check("paths.sigma_min", sigma_min >= ELLIPTICITY_FLOOR, sigma_min,
              ELLIPTICITY_FLOOR),
    ]


# --- checks on the mollification study ---------------------------------------


def wasserstein1(a: np.ndarray, b: np.ndarray) -> float:
    """W1 between two equal-size empirical laws: mean gap of the sorted samples."""
    return float(np.mean(np.abs(np.sort(a.ravel()) - np.sort(b.ravel()))))


def kendall_decreasing(levels, values) -> tuple:
    """Kendall tau of values against levels, and its exact one-sided p-value
    for a decreasing trend (share of orderings with a tau at least as low)."""
    def tau(vals):
        pairs = list(itertools.combinations(range(len(levels)), 2))
        s = sum(np.sign(levels[j] - levels[i]) * np.sign(vals[j] - vals[i])
                for i, j in pairs)
        return s / len(pairs)

    t = tau(values)
    perms = list(itertools.permutations(values))
    p = sum(tau(perm) <= t + 1e-12 for perm in perms) / len(perms)
    return float(t), float(p)


def mollify_checks(levels_report: list, floor_report: float, n_list, classical: list,
                   virtual_terminal: np.ndarray, floor_pair: tuple) -> list:
    """The study's rows against W1 recomputed from the ensembles it ran.

    classical holds the terminal samples of each ladder level; floor_pair the
    two fresh-noise runs of the finest level that make the sampling floor.
    """
    own = [wasserstein1(c, virtual_terminal) for c in classical]
    reported = [row["w1_t1"] for row in levels_report]
    mismatch = max(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(own, reported))
    own_floor = wasserstein1(*floor_pair)
    floor_gap = abs(own_floor - floor_report) / max(floor_report, 1e-300)
    tau, p = kendall_decreasing(list(n_list), own)
    return [
        check("mollify.w1_rows_recomputed", mismatch <= 1e-12, mismatch, 1e-12),
        check("mollify.floor_recomputed", floor_gap <= 1e-12, floor_gap, 1e-12),
        check("mollify.kendall_decreasing_5pct", tau < 0 and p <= 0.05, p, 0.05),
        check("mollify.finest_within_3_floors", own[-1] <= 3.0 * own_floor,
              own[-1], 3.0 * own_floor),
    ]


def all_ok(checks: list) -> bool:
    return all(c["ok"] for c in checks)
