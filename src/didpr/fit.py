"""Fitting the preferential-attachment model to an observed network.

fit_ev fits the scenario probabilities and degree offsets of the model of
Bollobas, Borgs, Chayes and Riordan (2003) from the node degrees alone:

* beta_hat: one minus the node/edge ratio (each non-beta step adds a node);
  gamma = 1 - beta_hat - alpha.
* Given the parameters, the model's limiting in- and out-degree laws are
  exact recursions (_log_law).  The fit maximises the composite likelihood
  of the two marginals (Varin, Reid and Firth 2011): the sum of the nodes'
  log-probabilities of their in-degrees and of their out-degrees, ignoring
  how the two covary at a node.  Given alpha, the in-degree term depends on
  delta_in alone and the out-degree term on delta_out alone, so each offset
  is a 1-D search, nested inside one search over alpha.
* The likelihood trusts the whole law, bulk and tail alike: a network whose
  low degrees formed otherwise pulls the fit even where its tails follow
  the model.  An offset that runs to an end of its search says the
  degrees do not follow the model at all (light-tailed Erdos-Renyi degrees
  do so).

tail_index is a separate estimator of one degree sample's tail index: a
discrete power law fitted by maximum likelihood above the threshold that
minimises the KS distance.

Both run on numpy alone: _fminbound and _hurwitz_zeta repeat scipy's
bounded minimiser and cephes' zeta operation for operation, so they read
scipy's numbers bit for bit without paying to import it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# gen_dpa is not called here, but perfbench/tracing.py wraps it under this
# module's name, so the name stays bound.
from .generate import gen_dpa  # noqa: F401
from .graph import DirectedGraph

__all__ = [
    "EvFit",
    "beta_hat",
    "tail_index",
    "fit_ev",
    "tail_indices_from_params",
]

_MIN_POSITIVE_DEGREES = 50
_EXPONENT_BOUNDS = (1.0 + 1e-6, 12.0)
# Each offset delta is searched as s = delta (alpha + gamma), which sets
# the tail index (1 + s) / (alpha + beta) of the in-degrees, and likewise of
# the out-degrees.  s = 100 is a tail index above 100, no heavy tail at all.
# A search that ends within _AT_BOUND of either end (its last steps are a
# few 1e-6) found no interior optimum: the law does not fit the degrees.
_SCALED_OFFSET_BOUNDS = (0.0, 100.0)
_AT_BOUND = 1e-4


@dataclass(frozen=True)
class EvFit:
    """Fitted preferential-attachment parameters.

    alpha_hat + beta_hat + gamma_hat = 1; the delta offsets are positive;
    iota1_hat / iota2_hat are the out-/in-degree tail indices that the
    fitted parameters give (tail_indices_from_params).
    """

    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    delta_in_hat: float
    delta_out_hat: float
    iota1_hat: float
    iota2_hat: float

    def as_dict(self) -> dict:
        return asdict(self)


def beta_hat(g: DirectedGraph) -> float:
    """Estimate the beta scenario probability as 1 - |V|/|E|.

    Every alpha or gamma step adds exactly one node, so the node/edge ratio
    estimates alpha + gamma.  Raises ValueError when the graph has more
    nodes than edges.
    """
    if g.num_edges == 0:
        raise ValueError("no edges; beta estimate undefined")
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


# ---------------------------------------------------------------------------
# Composite likelihood of the exact degree laws
# ---------------------------------------------------------------------------

def _log_law(born0: float, born1: float, grow: float, ag: float,
             delta: float, kmax: int) -> np.ndarray:
    """log q_0, ..., log q_kmax of the model's limiting node degree law.

    In-degrees: born0 = alpha (a new source enters with in-degree 0), born1
    = gamma (a new target enters with in-degree 1), grow = alpha + beta
    (the share of steps that attach to an existing target), delta =
    delta_in.  Out-degrees swap alpha and gamma, with grow = beta + gamma
    and delta = delta_out.  ag = alpha + gamma is the share of steps that
    add a node.  With c = grow / (1 + delta ag), the share p_i of steps per
    node of degree i is

        p_0 = born0 / (1 + c delta),
        p_1 = (born1 + c delta p_0) / (1 + c (1 + delta)),
        p_i = p_(i-1) c (i - 1 + delta) / (1 + c (i + delta)),  i >= 2,

    and q_i = p_i / ag.  kmax must be at least 1.
    """
    c = grow / (1.0 + delta * ag)
    p0 = born0 / (1.0 + c * delta)
    p1 = (born1 + c * delta * p0) / (1.0 + c * (1.0 + delta))
    i = np.arange(2.0, kmax + 1.0)
    steps = np.log(c * (i - 1.0 + delta)) - np.log1p(c * (i + delta))
    log_p1 = math.log(p1)
    return np.concatenate(([math.log(p0), log_p1],
                           log_p1 + np.cumsum(steps))) - math.log(ag)


def _fit_offset(counts: np.ndarray, born0: float, born1: float, grow: float,
                ag: float) -> tuple[float, float]:
    """(s, negative log-likelihood at s) for one degree marginal, given as
    node counts per degree; s = delta ag is the scaled offset."""
    kmax = max(counts.size - 1, 1)

    def nll(scaled: float) -> float:
        law = _log_law(born0, born1, grow, ag, scaled / ag, kmax)
        return -float(counts @ law[:counts.size])

    scaled = _fminbound(nll, _SCALED_OFFSET_BOUNDS)[0]
    return scaled, nll(scaled)


def fit_ev(g: DirectedGraph) -> EvFit:
    """Fit attachment parameters to an observed network.

    beta from the node/edge ratio; alpha, delta_in and delta_out by
    maximising the composite likelihood of the in- and out-degree laws
    (see the module docstring).  Deterministic: the graph's degrees fix
    the result.  Raises ValueError when the graph has no edges or more
    nodes than edges, or when an offset runs to an end of its search
    interval (the degrees do not follow the model's law).
    """
    b_hat = beta_hat(g)
    ag = 1.0 - b_hat  # alpha + gamma
    in_counts, out_counts = np.bincount(g.in_deg), np.bincount(g.out_deg)

    def offsets(alpha: float) -> tuple[float, float, float]:
        gamma = ag - alpha
        s_in, nll_in = _fit_offset(in_counts, alpha, gamma, alpha + b_hat, ag)
        s_out, nll_out = _fit_offset(out_counts, gamma, alpha,
                                     gamma + b_hat, ag)
        return s_in, s_out, nll_in + nll_out

    alpha_hat = _fminbound(lambda alpha: offsets(alpha)[2], (0.0, ag))[0]
    s_in, s_out, _ = offsets(alpha_hat)
    lo, hi = _SCALED_OFFSET_BOUNDS
    pinned = [name for name, s in (("delta_in", s_in), ("delta_out", s_out))
              if min(s - lo, hi - s) < _AT_BOUND]
    if pinned:
        raise ValueError(
            f"{' and '.join(pinned)} ran to an end of the search interval "
            f"{lo:g} < delta (alpha + gamma) < {hi:g}: the degrees do not "
            "follow the attachment model's law"
        )
    delta_in, delta_out = s_in / ag, s_out / ag
    gamma_hat = ag - alpha_hat
    iota1, iota2 = tail_indices_from_params(
        alpha_hat, b_hat, gamma_hat, delta_out, delta_in
    )
    return EvFit(alpha_hat, b_hat, gamma_hat, delta_in, delta_out,
                 iota1, iota2)
