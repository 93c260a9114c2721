"""Independent answer check.

Every iterate the program returns is checked here with a plain scipy
sparse product, never with the program's own kernels or reported
residuals: ``||b - A x|| / ||b|| <= tol``.  A ``degraded`` result must
also report the residual its iterate really has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

TOL = 1e-8
#: Relative slack between two evaluations of one residual norm
#: (different summation order in the program's kernels and in scipy).
ROUNDING = 1e-3


def rel_residual(A: sp.csr_matrix, x: Optional[np.ndarray], b: np.ndarray) -> float:
    if x is None or x.shape != b.shape or not np.all(np.isfinite(x)):
        return float("inf")
    r = b - A @ x
    return float(np.linalg.norm(r) / np.linalg.norm(b))


class NoVerifiedAnswer(Exception):
    """A measured phase has no answer that passed its check."""


@dataclass
class Checker:
    """Counts checked answers and keeps a note for each failure."""

    checked: int = 0
    failures: List[str] = field(default_factory=list)

    def converged(
        self, what: str, A: sp.csr_matrix, x: Optional[np.ndarray], b: np.ndarray
    ) -> bool:
        """Check an answer claimed to meet the tolerance."""
        self.checked += 1
        rel = rel_residual(A, x, b)
        if rel <= TOL * (1.0 + ROUNDING):
            return True
        self.failures.append(f"{what}: recomputed residual {rel:.3e} > {TOL:.0e}")
        return False

    def reported(
        self, what: str, A: sp.csr_matrix, x: Optional[np.ndarray], b: np.ndarray, claimed: float
    ) -> bool:
        """Check that a reported residual matches the iterate's own."""
        self.checked += 1
        rel = rel_residual(A, x, b)
        if np.isfinite(rel) and abs(rel - claimed) <= ROUNDING * rel + 1e-15:
            return True
        self.failures.append(f"{what}: reported residual {claimed:.3e}, recomputed {rel:.3e}")
        return False
