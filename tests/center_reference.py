"""Dense reference for the analytic-centre polish.

Assembles the full (ns+nt+4)^2 Newton system of the log barrier on every
iteration, with a 4·ns·nt weight tensor, equilibrates it, adds a tiny ridge
and solves it directly: the form the centre polish had before it shared
the entropy solver's Newton kernel.  Its steps are exact up to the ridge,
so from the same starting point it must reach the library's centre to
solver precision.
"""
import numpy as np

from didpr.assortativity import EdgeMixMatrix
from didpr.eta import EtaProblem, _targets


def reference_center_eta(
    p: EtaProblem,
    eta0: EdgeMixMatrix,
    max_iters: int = 60,
    tol: float = 1e-6,
) -> EdgeMixMatrix | None:
    """Polish eta0 to the analytic centre; None if the residual is not tiny."""
    ns, nt = len(p.source_pairs), len(p.target_pairs)
    (rho, kappa, U, V, *_), m_star = p.ends, _targets(p)
    W = (U.T[:, None, :, None] * V.T[None, :, None, :]).reshape(4, ns, nt)
    Wf = W.reshape(4, -1)
    b_full = np.concatenate([rho, kappa, m_star])

    X = eta0.H.copy()
    n = ns + nt + 4
    for _ in range(max_iters):
        X2 = X * X
        P = np.einsum("kst,st->sk", W, X2)
        Q = np.einsum("kst,st->tk", W, X2)
        R = (Wf * X2.ravel()) @ Wf.T
        H = np.zeros((n, n))
        H[:ns, :ns] = np.diag(X2.sum(axis=1))
        H[:ns, ns:ns + nt] = X2
        H[:ns, ns + nt:] = P
        H[ns:ns + nt, :ns] = X2.T
        H[ns:ns + nt, ns:ns + nt] = np.diag(X2.sum(axis=0))
        H[ns:ns + nt, ns + nt:] = Q
        H[ns + nt:, :ns] = P.T
        H[ns + nt:, ns:ns + nt] = Q.T
        H[ns + nt:, ns + nt:] = R
        ax = np.concatenate([X.sum(axis=1), X.sum(axis=0), Wf @ X.ravel()])
        # With rhs = 2 Ax - b the full Newton step lands exactly on the
        # constraints instead of merely preserving the current residual.
        rhs = 2.0 * ax - b_full
        # The diagonal spans many orders of magnitude (squared cell
        # masses), so equilibrate before adding the ridge; a raw additive
        # ridge would perturb the small-mass rows enough to leak
        # feasibility error into every step.
        d = np.sqrt(np.maximum(H.diagonal(), 1e-300))
        Hs = H / d[:, None] / d[None, :]
        Hs[np.arange(n), np.arange(n)] += 1e-13
        try:
            mult = np.linalg.solve(Hs, rhs / d) / d
        except np.linalg.LinAlgError:
            mult = np.linalg.lstsq(Hs, rhs / d, rcond=None)[0] / d
        at_mult = (mult[:ns][:, None] + mult[ns:ns + nt][None, :]
                   + np.tensordot(mult[ns + nt:], W, axes=1))
        dx = X - X2 * at_mult
        if float((dx * dx / X2).sum()) < tol:
            break
        t_ls = 1.0
        neg = dx < 0.0
        if neg.any():
            t_ls = min(1.0, 0.99 * float((X[neg] / -dx[neg]).min()))
        base = float(np.log(X).sum())
        for _ in range(50):
            stepped = X + t_ls * dx
            if (stepped > 0.0).all() and float(np.log(stepped).sum()) > base:
                break
            t_ls *= 0.5
        else:
            break
        X = stepped
    resid = max(
        float(np.abs((X.sum(axis=1) - rho) / rho).max()),
        float(np.abs((X.sum(axis=0) - kappa) / kappa).max()),
        float(np.abs(Wf @ X.ravel() - m_star).max()),
    )
    if resid > 1e-8:
        return None
    return EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                         X / X.sum())
