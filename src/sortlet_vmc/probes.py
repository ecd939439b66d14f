"""Executable checks of the structural claims the engine rests on.

Each probe takes the wavefunction it checks, evaluates it at its initial θ,
is deterministic given a seed and returns a plain dict with a "passed" flag
plus whatever evidence it gathered, so reports serialize as one JSON line. The probes deliberately avoid the autodiff engines wherever
the engines themselves are under test: sign flips are compared bitwise,
derivatives come from finite differences of plain values.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import ad, backbone
from .ad.fd import derivative_one_sided, grad_central
from .ansatz import vandermonde_logs
from .geometry import SystemSpec, transpose_electrons
from .sampler import electron_homes


def _signed_log_fn(wf, vandermonde: bool = False):
    """positions -> SignedLog of wf at its initial θ, bound once. With
    vandermonde, the baseline: head 0 of wf's scores with prod_{i<j}(s_j - s_i)
    for antisymmetrizer, plain only."""
    bound, system = wf.bind(wf.theta0), wf.system
    if vandermonde:
        return lambda p: vandermonde_logs(
            backbone.scores(system, bound, backbone.electron_geometry(system, p)[0])[:, 0, :])
    return lambda p: wf.signed_log(bound, p)


def _random_configs(system: SystemSpec, trials: int, rng, spread: float = 1.5):
    homes = electron_homes(system)
    return homes[None] + spread * rng.standard_normal((trials, *homes.shape))


def _random_same_spin_pairs(system: SystemSpec, trials: int, rng):
    sectors = [idx for idx in system.sectors if idx.size >= 2]
    if not sectors:
        raise ValueError("system has no spin sector with two electrons")
    i = np.empty(trials, dtype=np.int64)
    j = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        idx = sectors[rng.integers(len(sectors))]
        a, b = rng.choice(idx, size=2, replace=False)
        i[t], j[t] = a, b
    return i, j


def antisymmetry_suite(wf, *, trials: int, seed: int) -> dict:
    """Exact sign flip under random same-spin transpositions at wf.theta0, batched,
    with log|ψ| bit-identical off the node, as canonical order makes it.

    Also runs wf's head-0 Vandermonde baseline through the same protocol and
    an opposite-spin control group for which no relation is asserted.
    """
    system = wf.system
    fn = _signed_log_fn(wf)
    rng = np.random.default_rng(seed)
    pos = _random_configs(system, trials, rng)
    i, j = _random_same_spin_pairs(system, trials, rng)
    sl = fn(pos)
    sw = fn(transpose_electrons(pos, i, j))

    live = (sl.sign != 0) & (sw.sign != 0)
    sign_bad = np.flatnonzero(sw.sign != -sl.sign)
    logmag_diff = np.where(live, np.abs(sw.logmag - sl.logmag), 0.0)
    max_diff = float(np.max(logmag_diff)) if trials else 0.0
    violations = sign_bad.tolist() + np.flatnonzero(logmag_diff != 0).tolist()

    report = {
        "probe": "antisymmetry", "seed": seed, "trials": trials,
        "violations": len(set(violations)),
        "max_logmag_diff": max_diff,
        "dead_points": int(trials - np.count_nonzero(live)),
        "passed": not violations,
    }
    if violations:
        k = sorted(set(violations))[0]
        report["witness"] = {"positions": pos[k].tolist(),
                             "swap": [int(i[k]), int(j[k])]}

    vdm = _signed_log_fn(wf, vandermonde=True)
    vs = vdm(pos)
    vw = vdm(transpose_electrons(pos, i, j))
    report["vandermonde_sign_flips"] = bool(np.all(vw.sign == -vs.sign))
    report["passed"] = report["passed"] and report["vandermonde_sign_flips"]

    # control: opposite-spin swaps have no fixed sign relation
    up, dn = system.sectors
    if up.size and dn.size:
        so = fn(transpose_electrons(pos, up[0], dn[0]))
        report["opposite_spin_flip_fraction"] = float(np.mean(so.sign == -sl.sign))
    return report


def _path_positions(base: np.ndarray, target: np.ndarray, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))[:, None, None]
    return base[None] * (1.0 - t) + target[None] * t


def _bisect_sign_change(signed_log_fn, base, target, lo, hi, sign_lo, tol):
    """Shrink [lo, hi] brackets (vectorized) until each is narrower than tol."""
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    sign_lo = np.asarray(sign_lo, dtype=np.float64).copy()
    while True:
        width = hi - lo
        open_ = width > tol
        if not np.any(open_):
            return lo, hi
        mid = 0.5 * (lo + hi)
        sm = np.asarray(signed_log_fn(_path_positions(base, target, mid[open_])).sign)
        sub = np.flatnonzero(open_)
        exact = sm == 0
        same = (sm == sign_lo[sub]) & ~exact
        lo[sub[same]] = mid[sub[same]]
        hi[sub[~same & ~exact]] = mid[sub[~same & ~exact]]
        lo[sub[exact]] = mid[sub[exact]]
        hi[sub[exact]] = mid[sub[exact]]


def _sign_changes(signs: np.ndarray):
    """Grid indices k >= 1 of sign changes: `zeros` opens each run of zero
    samples (one crossing, located exactly), `flips` has a nonzero sign
    unlike the sample before. The sample after a zero run is not compared,
    so no crossing counts twice (an even grid always hits the t = 1/2 zero)."""
    prev, cur = signs[:-1], signs[1:]
    after_zero = np.r_[False, prev[1:] == 0]
    zeros = np.flatnonzero((cur == 0) & ~after_zero) + 1
    flips = np.flatnonzero((cur != 0) & (cur != prev) & ~after_zero) + 1
    return zeros, flips


def node_crossing_probe(signed_log_fn, system: SystemSpec, positions: np.ndarray, i: int,
                        j: int, resolution: int = 200, tol: float = 1e-10) -> dict:
    """Locate sign changes of the wavefunction along the (i j) exchange path.

    The endpoints are each other's transposition, so an odd number of
    crossings must exist whenever the endpoints are off the node.
    """
    if i == j:
        raise ValueError("exchange pair must be two distinct electrons")
    if system.spins[i] != system.spins[j]:
        raise ValueError("exchange pair must share spin")
    if resolution < 100:
        raise ValueError("resolution must be at least 100 path samples")
    target = transpose_electrons(positions, i, j)
    ts = np.linspace(0.0, 1.0, resolution + 1)
    signs = np.asarray(signed_log_fn(_path_positions(positions, target, ts)).sign)
    if signs[0] == 0 or signs[-1] == 0:
        raise ValueError("path endpoint lies on a node")

    zeros, flips = _sign_changes(signs)
    locations = [(float(ts[k]), float(ts[k])) for k in zeros]
    if flips.size:
        lo, hi = _bisect_sign_change(signed_log_fn, positions, target,
                                     ts[flips - 1], ts[flips], signs[flips - 1], tol)
        locations.extend(zip(lo.tolist(), hi.tolist()))
    locations.sort()
    return {"count": len(locations), "locations": locations,
            "max_width": max((b - a for a, b in locations), default=0.0)}


def _exchange_paths(system: SystemSpec, fn, rng, attempts: int, resolution: int,
                    tol: float):
    """(positions, i, j, crossings) along random same-spin exchange paths, from
    at most `attempts` draws; a path with an endpoint on a node is skipped."""
    for _ in range(attempts):
        pos = _random_configs(system, 1, rng)[0]
        i, j = (int(k[0]) for k in _random_same_spin_pairs(system, 1, rng))
        try:
            result = node_crossing_probe(fn, system, pos, i, j, resolution=resolution, tol=tol)
        except ValueError:
            continue
        yield pos, i, j, result


def node_crossing_suite(wf, *, vandermonde: bool = False, trials: int, seed: int) -> dict:
    """Run the exchange-path crossing protocol over `trials` random paths of wf
    at wf.theta0, or of its Vandermonde baseline. Any antisymmetric ψ changes
    sign between r and its exchange, so every path must show a crossing. A
    spin sector of three electrons adds three-cycle paths, which end at an
    even permutation: their crossing counts are recorded, not asserted."""
    system = wf.system
    resolution = 200  # path samples; crossings are bisected to width 1e-10
    rng = np.random.default_rng(seed)
    fn = _signed_log_fn(wf, vandermonde)

    t0 = time.perf_counter()
    results = [r for *_, r in itertools.islice(
        _exchange_paths(system, fn, rng, 20 * trials, resolution, 1e-10), trials)]
    if len(results) < trials:
        raise RuntimeError("could not draw enough off-node paths")
    counts = [r["count"] for r in results]
    found = sum(c >= 1 for c in counts)
    max_width = max([r["max_width"] for r in results if r["count"] >= 1], default=0.0)

    report = {"probe": "nodes", "vandermonde": vandermonde, "seed": seed, "paths": trials,
              "with_crossing": found, "max_bracket_width": max_width,
              "mean_crossings": float(np.mean(counts)),
              "elapsed": round(time.perf_counter() - t0, 3),
              "passed": found == trials}

    sectors = [s for s in system.sectors if s.size >= 3]
    if sectors:
        ts = np.linspace(0.0, 1.0, resolution + 1)
        cyc_counts = []
        for _ in range(min(trials, 25)):
            pos = _random_configs(system, 1, rng)[0]
            a, b, c = rng.choice(sectors[0], size=3, replace=False)
            target = transpose_electrons(transpose_electrons(pos, a, b), b, c)  # (a b c)
            path = _path_positions(pos, target, ts)
            cyc_counts.append(sum(k.size for k in _sign_changes(np.asarray(fn(path).sign))))
        report["three_cycle_crossing_counts"] = cyc_counts
    return report


_H_SWEEP = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)


def _one_sided_agreement(f, t_star: float) -> dict:
    best = None
    for h in _H_SWEEP:
        left = derivative_one_sided(f, t_star, h, side=-1)
        right = derivative_one_sided(f, t_star, h, side=+1)
        scale = max(abs(left), abs(right), 1e-300)
        rel = abs(left - right) / scale
        if best is None or rel < best["rel"]:
            best = {"h": h, "left": left, "right": right, "rel": rel}
    return best


def _double_tie_config(system: SystemSpec, rng) -> np.ndarray | None:
    """Positions whose score vector carries two exact ties, or None.

    Same-spin electrons at identical positions get bitwise-identical
    scores by permutation equivariance, so coincidences manufacture exact
    ties that bisection never could. A 3-fold coincidence kills two
    adjacent gaps; two separate pairs kill one gap each.
    """
    pos = _random_configs(system, 1, rng)[0].copy()
    triple = [s for s in system.sectors if s.size >= 3]
    pairs = [s for s in system.sectors if s.size >= 2]
    if triple:
        a, b, c = triple[0][:3]
        pos[b] = pos[a]
        pos[c] = pos[a]
        return pos
    if len(pairs) >= 2:
        pos[pairs[0][1]] = pos[pairs[0][0]]
        pos[pairs[1][1]] = pos[pairs[1][0]]
        return pos
    return None


def smoothness_probe(wf, *, trials: int, seed: int) -> dict:
    """First-derivative behavior of wf's signed value at `trials` score ties, at wf.theta0.

    Single tie: the value crosses zero along an exchange path; one-sided
    finite-difference derivatives from both sides must agree (the sign
    flip of the parity cancels the kink of the gap product). Double tie:
    every coordinate derivative vanishes, checked by central differences.
    Also cross-checks FD against the forward engine away from ties.
    """
    system = wf.system
    rng = np.random.default_rng(seed)
    fn = _signed_log_fn(wf)
    flat_value = lambda p: float(fn(p.reshape(-1, 3)[None]).value()[0])

    single = []
    clearance_needed = 5.0 * max(_H_SWEEP)
    for pos, i, j, result in _exchange_paths(system, fn, rng, 50 * trials,
                                             resolution=1000, tol=1e-12):
        # the widest stencil must not straddle a neighboring crossing; skip
        # the coincidence at t = 1/2, where the path is odd by symmetry and
        # one-sided derivatives agree vacuously
        mids = [0.5 * (a + b) for a, b in result["locations"]]
        best_t, best_clear = None, clearance_needed
        for k, t in enumerate(mids):
            if abs(t - 0.5) < 1e-2:
                continue
            clear = min([abs(t - u) for m, u in enumerate(mids) if m != k] + [t, 1.0 - t])
            if clear > best_clear:
                best_t, best_clear = t, clear
        if best_t is None:
            continue
        target = transpose_electrons(pos, i, j)
        best = _one_sided_agreement(
            lambda t: float(fn(_path_positions(pos, target, [t])).value()[0]),
            best_t)
        best["t"] = best_t
        single.append(best)
        if len(single) == trials:
            break
    worst_single = max((s["rel"] for s in single), default=np.inf)

    double_report = {"applicable": False}
    pos2 = _double_tie_config(system, rng)
    if pos2 is not None:
        grads = grad_central(flat_value, pos2.reshape(-1), h=1e-6)
        double_report = {"applicable": True,
                         "on_node": bool(np.all(fn(pos2[None]).sign == 0)),
                         "max_coordinate_derivative": float(np.max(np.abs(grads)))}

    # control: away from ties the value is plainly differentiable and the
    # forward engine must agree with central differences.
    pos3 = _random_configs(system, 1, rng)[0]
    d = fn(ad.seed_positions(pos3[None]))
    engine = d.logmag.tan[0] * float(d.value()[0])
    fd = grad_central(flat_value, pos3.reshape(-1), h=1e-5)
    control_rel = float(np.max(np.abs(engine - fd))
                        / max(float(np.max(np.abs(fd))), 1e-300))

    passed = (bool(single) and worst_single < 1e-5
              and (not double_report["applicable"]
                   or (double_report["on_node"]
                       and double_report["max_coordinate_derivative"] < 1e-8))
              and control_rel < 1e-4)
    return {"probe": "smoothness", "seed": seed,
            "single_tie_trials": len(single),
            "worst_one_sided_rel": float(worst_single),
            "double_tie": double_report,
            "control_fd_rel": control_rel,
            "passed": passed}
