"""Fitting the preferential-attachment model from degree tails.

The fitting route uses only coarse, tail-level features of an observed
network, which makes it robust to how the bulk of the degrees was formed:

* beta_hat: one minus the node/edge ratio (each non-beta step adds a node).
* tail_index: discrete power-law fit of a degree sample by maximum
  likelihood with the tail threshold chosen by minimum KS distance; the
  returned value is the tail index, i.e. the fitted exponent minus one.
* polar_transform: after rescaling in-degrees by a_hat = iota2/iota1, map
  each node's degree pair to an L1 radius and angle; the angle
  distribution in the radius tail separates the scenario mix.
* fit_ev: glue the above together, choose alpha by matching the observed
  tail-angle sample against simulated networks over a candidate grid, and
  recover the delta offsets by inverting the tail-index formulas.

The tail fit runs on numpy alone: _fminbound and _hurwitz_zeta repeat
scipy's bounded minimiser and cephes' zeta operation for operation, so the
fit reads scipy's numbers bit for bit without paying to import it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .generate import DpaParams, gen_dpa
from .graph import DirectedGraph

__all__ = [
    "EvFit",
    "beta_hat",
    "tail_index",
    "polar_transform",
    "fit_ev",
    "tail_indices_from_params",
    "invert_tail_indices",
]

_MIN_POSITIVE_DEGREES = 50
_EXPONENT_BOUNDS = (1.0 + 1e-6, 12.0)


@dataclass(frozen=True)
class EvFit:
    """Fitted preferential-attachment parameters.

    alpha_hat + beta_hat + gamma_hat = 1; the delta offsets are positive;
    iota1_hat / iota2_hat are the out-/in-degree tail indices; a_hat is
    their ratio iota2/iota1; n_tail is the tail size used for alpha.
    """

    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    delta_in_hat: float
    delta_out_hat: float
    iota1_hat: float
    iota2_hat: float
    n_tail: int
    a_hat: float

    def as_dict(self) -> dict:
        return asdict(self)


def beta_hat(g: DirectedGraph) -> float:
    """Estimate the beta scenario probability as 1 - |V|/|E|.

    Every alpha or gamma step adds exactly one node, so the node/edge ratio
    estimates alpha + gamma.  Raises ValueError when the graph has more
    nodes than edges.
    """
    if g.num_edges < g.num_nodes:
        raise ValueError("more nodes than edges; beta estimate undefined")
    return 1.0 - g.num_nodes / g.num_edges


def tail_indices_from_params(
    alpha: float, beta: float, gamma: float,
    delta_out: float, delta_in: float,
) -> tuple[float, float]:
    """Theoretical out-/in-degree tail indices of the attachment model."""
    iota1 = (1.0 + delta_out * (alpha + gamma)) / (beta + gamma)
    iota2 = (1.0 + delta_in * (alpha + gamma)) / (alpha + beta)
    return iota1, iota2


def invert_tail_indices(
    alpha: float, beta: float, gamma: float,
    iota1: float, iota2: float,
) -> tuple[float, float]:
    """Recover (delta_out, delta_in) from the tail indices; exact inverse
    of tail_indices_from_params for fixed scenario probabilities."""
    ag = alpha + gamma
    if ag <= 0.0:
        raise ValueError("alpha + gamma must be positive to invert")
    delta_out = (iota1 * (beta + gamma) - 1.0) / ag
    delta_in = (iota2 * (alpha + beta) - 1.0) / ag
    return delta_out, delta_in


# ---------------------------------------------------------------------------
# Discrete power-law tail fitting (minimum KS distance)
# ---------------------------------------------------------------------------

# Euler-Maclaurin coefficients and stopping threshold of cephes' zeta.c.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x: float, q):
    """Hurwitz zeta sum over k >= 0 of (k + q)**-x, x > 1, 1 <= q <= 1e8.

    cephes' zeta, the one scipy.special.zeta calls, step for step, so each
    value is bit-equal to scipy's (above q = 1e8 cephes switches to an
    asymptotic form; degrees stay far below).  Powers use math.pow, the
    libm pow that cephes calls: numpy's SIMD power rounds some differently.
    """
    if np.ndim(q):
        return np.array([_hurwitz_zeta(x, v)
                         for v in np.asarray(q, dtype=np.float64).tolist()])
    x, q = float(x), float(q)
    s = math.pow(q, -x)
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _fminbound(func, bounds):
    """Brent's bounded minimiser; returns (x, number of func calls).

    scipy 1.17's minimize_scalar(method="bounded") with xatol 1e-6 and at
    most 500 calls, operation for operation: it visits the same points and
    returns the same x.
    """
    a, b = bounds
    xatol, maxiter = 1e-6, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx, num = func(xf), 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while num < maxiter and abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc = nfc, fnfc, xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, num


def _mle_exponent(values: np.ndarray, counts: np.ndarray, x_min: int) -> float:
    """Maximum-likelihood exponent of a discrete power law on x >= x_min."""
    n = counts.sum()
    log_sum = float(counts @ np.log(values))

    def nll(expo: float) -> float:
        return expo * log_sum + n * np.log(_hurwitz_zeta(expo, x_min))

    return float(_fminbound(nll, _EXPONENT_BOUNDS)[0])


def _ks_distance(values: np.ndarray, counts: np.ndarray, expo: float,
                 x_min: int) -> float:
    """KS distance between the empirical tail and the fitted power law."""
    n = counts.sum()
    emp_cdf = np.cumsum(counts) / n
    z0 = _hurwitz_zeta(expo, x_min)
    fit_cdf = 1.0 - _hurwitz_zeta(expo, values + 1) / z0
    return float(np.abs(emp_cdf - fit_cdf).max())


def tail_index(degrees, min_tail: int = 25) -> tuple[float, int]:
    """Tail index of a degree sample by the minimum-distance method.

    Zeros are discarded.  Every distinct positive value leaving at least
    min_tail points in the tail is tried as the threshold x_min; for each,
    a discrete power law is fitted by maximum likelihood and its KS
    distance to the empirical tail computed.  Returns (iota, x_min) for the
    best threshold, where iota is the fitted exponent minus one.

    Raises ValueError with fewer than 50 positive degrees or when the
    positive degrees are all equal (no tail to fit).
    """
    x = np.asarray(degrees, dtype=np.int64)
    x = x[x > 0]
    if x.size < _MIN_POSITIVE_DEGREES:
        raise ValueError(
            f"need at least {_MIN_POSITIVE_DEGREES} positive degrees, "
            f"got {x.size}"
        )
    values, counts = np.unique(x, return_counts=True)
    if values.size < 2:
        raise ValueError("constant degrees: no power-law tail to fit")

    tail_sizes = np.cumsum(counts[::-1])[::-1]
    best: tuple[float, float, int] | None = None
    for idx in range(values.size):
        if tail_sizes[idx] < min_tail:
            break
        if values.size - idx < 2:
            break
        x_min = int(values[idx])
        v = values[idx:]
        c = counts[idx:]
        expo = _mle_exponent(v, c, x_min)
        dist = _ks_distance(v, c, expo, x_min)
        if best is None or dist < best[0]:
            best = (dist, expo, x_min)
    if best is None:
        raise ValueError("no admissible tail threshold; sample too small")
    _, expo, x_min = best
    return expo - 1.0, x_min


def polar_transform(out_deg, in_deg, a_hat: float):
    """L1 polar coordinates of degree pairs after rescaling in-degrees.

    Maps (d1, d2) to R = d1 + d2**a_hat and theta = d2**a_hat / R.  Nodes
    with both degrees zero are dropped.  Returns (R, theta) arrays.
    """
    if a_hat <= 0.0:
        raise ValueError("a_hat must be positive")
    d1 = np.asarray(out_deg, dtype=np.float64)
    d2 = np.asarray(in_deg, dtype=np.float64)
    if d1.shape != d2.shape:
        raise ValueError("degree arrays must have equal length")
    keep = (d1 > 0) | (d2 > 0)
    if not keep.any():
        raise ValueError("all nodes have degree zero")
    d1 = d1[keep]
    d2 = d2[keep]
    scaled = d2 ** a_hat
    r = d1 + scaled
    return r, scaled / r


def _tail_thetas(g: DirectedGraph, a_hat: float, n_tail: int) -> np.ndarray:
    """Angles of the n_tail nodes with the largest radii (strictly above
    the (n_tail + 1)-th largest)."""
    r, theta = polar_transform(g.out_deg, g.in_deg, a_hat)
    if r.size <= n_tail:
        raise ValueError(
            f"n_tail={n_tail} too large for {r.size} positive-degree nodes"
        )
    cut = np.partition(r, r.size - n_tail - 1)[r.size - n_tail - 1]
    return theta[r > cut]


def _ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs of x and y, taken at every point of the pooled sample.

    Every gap is a multiple of 1 / lcm(x.size, y.size), so the largest is
    rounded to that grid, as scipy's ks_2samp does in its exact mode (both
    sizes up to 10,000); it then returns the same statistic.
    """
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    gap = (np.searchsorted(x, pooled, side="right") / x.size
           - np.searchsorted(y, pooled, side="right") / y.size)
    lcm = math.lcm(x.size, y.size)
    return round(float(np.abs(gap).max()) * lcm) / lcm


def fit_ev(
    g: DirectedGraph,
    n_tail: int,
    grid_size: int = 21,
    sim_edges: int | None = None,
    seed: int | None = None,
) -> EvFit:
    """Fit attachment parameters to an observed network.

    beta from the node/edge ratio; tail indices from the degree marginals;
    alpha by minimising the KS distance between the observed tail-angle
    sample and samples from simulated networks over a grid of candidate
    alpha values (gamma = 1 - alpha - beta, offsets from the tail-index
    inversion at each candidate); offsets from the final inversion.

    sim_edges controls the size of the candidate simulations (default: the
    observed edge count).  Raises ValueError when the final inversion gives
    a nonpositive offset (inconsistent tail estimates).
    """
    if n_tail < 50:
        raise ValueError("n_tail must be at least 50")
    b_hat = beta_hat(g)
    iota1, _ = tail_index(g.out_deg)
    iota2, _ = tail_index(g.in_deg)
    a_hat = iota2 / iota1
    obs_theta = _tail_thetas(g, a_hat, n_tail)

    if sim_edges is None:
        sim_edges = g.num_edges
    ag = 1.0 - b_hat  # alpha + gamma, fixed along the grid
    if ag <= 0.0:
        raise ValueError("beta estimate is 1; no attachment scenarios to fit")
    seeds = np.random.SeedSequence(seed).generate_state(grid_size)

    best: tuple[float, float] | None = None
    for cand, cand_seed in zip(np.linspace(0.0, ag, grid_size), seeds):
        alpha = float(cand)
        gamma = ag - alpha
        try:
            d_out, d_in = invert_tail_indices(alpha, b_hat, gamma, iota1, iota2)
        except ValueError:
            continue
        if d_out <= 0.0 or d_in <= 0.0:
            continue
        sim = gen_dpa(DpaParams(alpha, b_hat, gamma, d_in, d_out,
                                sim_edges, int(cand_seed)))
        try:
            sim_theta = _tail_thetas(sim, a_hat, n_tail)
        except ValueError:
            continue
        dist = _ks_two_sample(obs_theta, sim_theta)
        if best is None or dist < best[0]:
            best = (dist, alpha)
    if best is None:
        raise ValueError(
            "inconsistent tail estimates: no candidate alpha admits "
            "positive degree offsets"
        )
    alpha_hat = best[1]
    gamma_hat = ag - alpha_hat
    delta_out, delta_in = invert_tail_indices(
        alpha_hat, b_hat, gamma_hat, iota1, iota2
    )
    if delta_out <= 0.0 or delta_in <= 0.0:
        raise ValueError("inconsistent tail estimates: nonpositive offset")
    return EvFit(
        alpha_hat, b_hat, gamma_hat, delta_in, delta_out,
        iota1, iota2, n_tail, a_hat,
    )
