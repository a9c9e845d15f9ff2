"""Application-level routines: fidelity optimizer and the grid-state table.

The two-mode target is the best Gaussian approximation to a pair of single
photons; its parameter vector is (a1, a2, r1, th1, r2, th2, phi, xi) mapping
to U(phi, xi) S(r1 e^{i th1}) (x) S(r2 e^{i th2}) D(a1) (x) D(a2) |00>,
where U(phi, xi) is the beamsplitter with mixing angle xi/2 and phase -phi.
That convention is fixed by requiring the published parameter set to
reproduce its published fidelity 1/4 and is validated against the oracle.

Both objectives, this one and the single-mode |<1|D(a) S(r)|0>|^2, are
closed forms of their parameters, a few numpy passes over a stack of points
with no call into the gate engine; the engine's kets, gate by gate, are the
tests' reference for both, and the truncated Fock oracle for the two-mode one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .states import breeding_lower_bound, naive_grid_extent

# Published reference point for the two-mode Gaussian-vs-two-photons search.
TWO_MODE_REFERENCE_PARAMS = (0.0, 0.0, 0.8814, 0.609, 0.8814, 1.107, -1.322, 1.571)
TWO_MODE_REFERENCE_FIDELITY = 0.25
# Nelder-Mead's xatol and fatol in optimize_fidelity
NELDER_MEAD_TOL = 1e-9

# Published grid-state extent table: squeezing -> (extent, breeding bound).
GRID_EXTENT_TABLE = {
    0.3: (2.797, 2),
    0.2: (3.969, 2),
    0.1: (7.496, 4),
    0.05: (14.562, 8),
    0.025: (28.701, 15),
    0.01: (71.126, 36),
}


def two_mode_fock11_fidelity(params):
    """|<1,1|G'(params)>|^2 for the parametrized two-mode Gaussian family; a
    (..., 8) stack of parameter vectors gives a (...) stack of fidelities.

    Closed form in the parameters: each mode's S(r e^{i th}) D(a)|0> with real a
    is the one-mode ket A = -tanh r e^{i th}, b = a sech r, log c = -a^2/2
    - log(cosh r)/2 + tanh r e^{-i th} a^2/2, and the beamsplitter's mode
    unitary U has rows (c, s) and (-conj(s), c) with c = cos(xi/2),
    s = sin(xi/2) e^{-i phi}, so <1,1|U (psi1 (x) psi2)> = c1 c2 ((U b)_0 (U b)_1
    + sum_k U_0k U_1k A_k).  The tests compare it with `stellar.fock11_amplitude`
    of the gate engine's two-mode ket and with the Fock oracle.
    """
    x = np.asarray(params, dtype=float)
    p = np.ascontiguousarray(x.reshape(-1, 8).T)  # one contiguous row per parameter: faster short ufuncs
    a, r = p[0:2], p[2:6:2]
    tr, cosh = np.tanh(r), np.cosh(r)
    w = tr * np.exp(1j * p[3:6:2])  # -A_k
    b = (1.0 / cosh) * a
    log_c = -0.5 * a**2 + (-0.5 * np.log(cosh) + 0.5 * (w.conj() * a) * a)
    half = p[7] / 2.0
    c, s = np.cos(half), np.sin(half) * np.exp(-1j * p[6])
    sc = s.conj()
    # (U b)_0 (U b)_1 + U_00 U_10 A_1 + U_01 U_11 A_2
    amp = (c * b[0] + s * b[1]) * (c * b[1] - sc * b[0]) + ((c * sc) * w[0] - (s * c) * w[1])
    return (abs(np.exp(log_c[0] + log_c[1]) * amp) ** 2).reshape(x.shape[:-1])[()]


def single_mode_fock1_fidelity(params):
    """|<1|D(a) S(r)|0>|^2 = sech r e^{-a^2 (1 + tanh r)} a^2 (1 + tanh r)^2 over
    real displacement and squeezing; a (..., 2) stack of (a, r) gives a (...)
    stack of fidelities.  Its maximum 3 sqrt(3) / (4 e) lies at a^2 = 2/3,
    tanh r = 1/2."""
    x = np.asarray(params, dtype=float)
    a, r = x.reshape(-1, 2).T
    g = 1.0 + np.tanh(r)
    u = a * a * g
    return (np.exp(-u) * u * g / np.cosh(r)).reshape(x.shape[:-1])[()]


@dataclass(frozen=True)
class OptimizerConfig:
    bounds: tuple
    restarts: int = 32
    budget: int = 20000
    seed: int = 0
    threads: int = 1  # kept for callers that pass it; the restarts run in lock step on one thread

    def __post_init__(self):
        for name in ("restarts", "budget", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # each restart's initial simplex alone takes len(bounds) + 1 evaluations
        least = self.restarts * (len(self.bounds) + 1)
        if self.budget < least:
            raise ValueError(f"budget must be at least restarts x (parameters + 1) = {least}, got {self.budget}")

    @classmethod
    def two_mode(cls, **kw) -> "OptimizerConfig":
        bounds = (
            (-1.5, 1.5),
            (-1.5, 1.5),
            (0.0, 1.6),
            (-math.pi, math.pi),
            (0.0, 1.6),
            (-math.pi, math.pi),
            (-math.pi, math.pi),
            (0.0, math.pi),
        )
        return cls(bounds=bounds, **kw)

    @classmethod
    def single_mode(cls, **kw) -> "OptimizerConfig":
        return cls(bounds=((0.0, 2.0), (0.0, 1.5)), **kw)


@dataclass(frozen=True)
class OptimizeResult:
    best_params: tuple
    best_fidelity: float
    evaluations: int


def optimize_fidelity(cfg: OptimizerConfig, objective=two_mode_fock11_fidelity) -> OptimizeResult:
    """Seeded multi-restart Nelder-Mead maximization of a fidelity objective.

    Derivative-free by design (the overlap engine exposes no gradients).  The
    restarts run in lock step, each by the rules of scipy's Nelder-Mead
    (``minimize(method="Nelder-Mead")`` with ``maxfev`` the per-restart budget
    and ``xatol = fatol = NELDER_MEAD_TOL``, on ``-objective`` of the point
    clipped to the bounds): its initial simplex, coefficients 1, 2, 1/2, 1/2,
    stop rule, budget and sort.  The sort is numpy's default argsort, as in
    scipy; it need not keep tied values in order, so a stable sort would part
    from scipy wherever clipping ties two vertices.  Each step makes one
    objective call on the stack of the four candidates (1 + t) xbar - t x_worst,
    t in (1, 2, 1/2, -1/2), of every running restart, and a second one on the
    points of the restarts that shrink.  ``evaluations`` counts the points the
    rules use, as scipy's nfev.  A restart's path does not depend on the
    others, so results are reproducible for a given seed.  Each restart gets
    ``budget // restarts`` evaluations, so ``budget`` caps the total.
    """
    lo, hi = np.array(cfg.bounds, dtype=float).T
    n = len(lo)
    per_restart = cfg.budget // cfg.restarts
    x0 = lo + (hi - lo) * np.array([stream(cfg.seed, k).random(n) for k in range(cfg.restarts)])

    def f(x):
        return -objective(np.clip(x, lo, hi))

    # scipy's initial simplex: x0, then x0 with coordinate k scaled by 1.05 (0.00025 where it is 0)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = f(sim)
    nfev = np.full(cfg.restarts, n + 1)
    rows = np.arange(cfg.restarts)[:, None]
    for _ in range(2):  # scipy sorts the first simplex twice; numpy's argsort need not keep ties
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]

    # candidates (1 + t) xbar - t x_worst: reflection, expansion, outside and inside contraction
    t = np.array([[1.0], [2.0], [0.5], [-0.5]])
    grow = 1 + t
    ids = np.arange(cfg.restarts)  # the restart of each row still running
    x_end, f_end, evaluations = np.empty((cfg.restarts, n)), np.empty(cfg.restarts), 0
    while True:
        # fsim is sorted, so max |f_0 - f_j| is f_n - f_0
        stop = nfev >= per_restart
        flat = fsim[:, -1] - fsim[:, 0] <= NELDER_MEAD_TOL
        if np.count_nonzero(flat):
            stop |= flat & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= NELDER_MEAD_TOL)
        if np.count_nonzero(stop):
            x_end[ids[stop]], f_end[ids[stop]] = sim[stop, 0], fsim[stop, 0]
            evaluations += int(nfev[stop].sum())
            go = ~stop
            sim, fsim, nfev, ids, rows = sim[go], fsim[go], nfev[go], ids[go], rows[: np.count_nonzero(go)]
            if not ids.size:
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        cand = grow * xbar[:, None] - t * sim[:, -1:]
        fc = f(cand)
        fr, fe = fc[:, 0], fc[:, 1]
        expand = fr < fsim[:, 0]
        reflect = (fr < fsim[:, -2]) & ~expand
        outside = ~reflect & ~expand & (fr < fsim[:, -1])
        # with one evaluation left scipy stops before a second point and keeps the simplex
        second = ~reflect & (nfev < per_restart - 1)
        nfev += second
        nfev += 1
        # the candidate each restart takes, unless it shrinks or is out of budget
        pick = np.where(reflect | expand, expand & (fe < fr), 3 - outside)
        fnew = fc[rows[:, 0], pick]
        shrink = second & ~expand & ~np.where(outside, fnew <= fr, fnew < fsim[:, -1])
        take = (reflect | second) & ~shrink
        sim[take, -1] = cand[take, pick[take]]
        fsim[take, -1] = fnew[take]
        if np.count_nonzero(shrink):
            s0 = sim[shrink, :1]
            pts = s0 + 0.5 * (sim[shrink, 1:] - s0)
            fpts = f(pts)
            # scipy moves a point, then stops at its evaluation once past the budget
            left = per_restart - nfev[shrink, None]
            j = np.arange(n)
            sim[shrink, 1:] = np.where((j <= left)[..., None], pts, sim[shrink, 1:])
            fsim[shrink, 1:] = np.where(j < left, fpts, fsim[shrink, 1:])
            nfev[shrink] += np.minimum(left[:, 0], n)
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]

    k = int(np.argmax(-f_end))
    x_best = np.clip(x_end[k], lo, hi)
    return OptimizeResult(tuple(float(v) for v in x_best), float(-f_end[k]), evaluations)


@dataclass(frozen=True)
class TableRow:
    delta: float
    naive_extent: float
    one_sided_extent: float
    published_extent: float | None
    breeding_bound: int | None


def report_table(deltas) -> list:
    """Rows of (delta, naive, one-sided and published extent, breeding bound).

    The naive extent applies (sum c)^2 / sum c^2 to the raw grid envelope
    c_t = e^{-pi delta^2 t^2} over all integers t, the one-sided extent the
    same orthogonal-term sum over t >= 0 only, about half the naive value,
    at any delta.  The published extents, tabulated at six deltas, match the
    one-sided sum; all are emitted.  The breeding bound ceil(xi / 2) uses the
    published extent where one exists, else the naive one.
    """
    rows = []
    for d in deltas:
        naive = naive_grid_extent(d)
        published = GRID_EXTENT_TABLE.get(d, (None, None))[0]
        xi = published if published is not None else naive
        one_sided = naive_grid_extent(d, one_sided=True)
        rows.append(TableRow(d, naive, one_sided, published, breeding_lower_bound(max(xi, 1.0))))
    return rows
