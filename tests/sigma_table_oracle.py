"""The full held-error covariance table, kept as a named oracle for
`etlqg.analysis.conditional_error_cov`, which keeps only the running sigma
and its per-age reductions tr sigma(i) and tr(M sigma(i)).

The table is a loop over the one conditioning step, `condition_step`, with
every sigma(i) stored. Tests that need sigma(i) itself (the mpmath and
stacked-covariance references, criterion 6, the hand-checked scalar chains)
read it here, and TestSigmaTableOracle checks that the pass's reductions are
those of this table.
"""

from __future__ import annotations

import numpy as np

from etlqg.analysis import checked_lambdas, condition_step


def sigma_table(ss, A, lams, timeout):
    """(p_i0, sigmas): p_i0 (G, T+1) and the held-error covariances sigmas
    (G, T+1, n, n), sigmas[:, 0] = 0, one row per lambda in lams order."""
    lams = checked_lambdas(lams, timeout)
    A = np.asarray(A, dtype=float)
    p_i0 = np.ones((len(lams), timeout + 1))
    sigmas = np.zeros((len(lams), timeout + 1) + A.shape)
    for k in range(timeout):
        p_i0[:, k], sigmas[:, k + 1] = condition_step(
            sigmas[:, k], A, ss.Pi_eta, lams, k)
    return p_i0, sigmas
