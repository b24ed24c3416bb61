"""Study designs and contrast functions over the wAUC vector.

A design declares how the markers stored in a dataset are organized and which
entries of the wAUC vector are paired for comparison:

* ``readers``: a multi-reader, two-modality study.  The dataset holds
  ``2 * n_readers`` markers; marker ``r`` is reader ``r`` under modality 1 and
  marker ``n_readers + r`` is the same reader under modality 2.  Times are
  pooled (usually a single time).
* ``longitudinal``: two markers measured at ``n_times`` time points.  The
  wAUC vector runs over the (marker, time) grid, marker-major, and entry
  ``(1, k)`` is paired with ``(2, k)``.

Both kinds therefore expose a vector of ``2 * n_pairs`` strata whose first
half is compared against the second half, which is what the signed contrast
matrix encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataFormatError

GRADIENT_STEP = 1e-6


@dataclass(frozen=True)
class StudyDesign:
    kind: str                # "readers" | "longitudinal"
    n_readers: int = 0
    n_markers: int = 2
    n_times: int = 1

    def __post_init__(self):
        if self.kind == "readers":
            if self.n_readers < 1:
                raise ValueError("readers design needs n_readers >= 1")
        elif self.kind == "longitudinal":
            if self.n_markers != 2:
                raise ValueError("longitudinal design compares exactly 2 markers")
            if self.n_times < 1:
                raise ValueError("longitudinal design needs n_times >= 1")
        else:
            raise ValueError(f"unknown design kind: {self.kind!r}")

    @classmethod
    def readers(cls, n_readers: int) -> "StudyDesign":
        return cls(kind="readers", n_readers=n_readers, n_markers=2 * n_readers, n_times=1)

    @classmethod
    def longitudinal(cls, n_times: int) -> "StudyDesign":
        return cls(kind="longitudinal", n_markers=2, n_times=n_times)

    # -- stratum layout --------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return self.n_readers if self.kind == "readers" else self.n_times

    @property
    def n_strata(self) -> int:
        return 2 * self.n_pairs

    def strata(self) -> list[tuple[int, int | None]]:
        """(marker, time) per stratum; time None means pooled over times."""
        if self.kind == "readers":
            return [(marker, None) for marker in range(1, 2 * self.n_readers + 1)]
        return [
            (marker, time)
            for marker in (1, 2)
            for time in range(1, self.n_times + 1)
        ]

    def labels(self) -> list[str]:
        if self.kind == "readers":
            out = []
            for modality in (1, 2):
                for reader in range(1, self.n_readers + 1):
                    out.append(f"reader{reader}_modality{modality}")
            return out
        return [
            f"marker{marker}_time{time}"
            for marker in (1, 2)
            for time in range(1, self.n_times + 1)
        ]

    def contrast_matrix(self) -> np.ndarray:
        """Signed pairing matrix A, shape (n_strata, n_pairs).

        Column p has +1 at stratum p (first half) and -1 at stratum
        n_pairs + p (second half), so A' omega is the vector of paired
        differences.
        """
        pairs = self.n_pairs
        mat = np.zeros((2 * pairs, pairs))
        for p in range(pairs):
            mat[p, p] = 1.0
            mat[pairs + p, p] = -1.0
        return mat


def parse_design(text: str) -> StudyDesign:
    """Parse ``readers:<R>`` or ``longitudinal:<K>`` (also ``longitudinal:2,<K>``)."""
    token = text.strip()
    try:
        if token.startswith("readers:"):
            return StudyDesign.readers(int(token[len("readers:"):]))
        if token.startswith("longitudinal:"):
            rest = token[len("longitudinal:"):]
            parts = [int(p) for p in rest.split(",")]
            if len(parts) == 1:
                return StudyDesign.longitudinal(parts[0])
            if len(parts) == 2:
                if parts[0] != 2:
                    raise ValueError("longitudinal design compares exactly 2 markers")
                return StudyDesign.longitudinal(parts[1])
    except ValueError as exc:
        raise DataFormatError(f"bad design selector {text!r}: {exc}") from exc
    raise DataFormatError(f"unknown design selector {text!r}")


@dataclass(frozen=True)
class ContrastFunction:
    """A scalar summary h of the wAUC vector, with its gradient.

    Linear contrasts carry explicit coefficients.  Smooth contrasts carry a
    callable and optionally an analytic gradient; when the gradient is
    missing it is approximated by central differences with step 1e-6.
    """

    kind: str                                   # "linear" | "smooth"
    coefficients: tuple[float, ...] | None = None
    func: Callable[[np.ndarray], float] | None = None
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if not self.coefficients:
                raise ValueError("linear contrast needs coefficients")
            object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        elif self.kind == "smooth":
            if self.func is None:
                raise ValueError("smooth contrast needs a callable")
        else:
            raise ValueError(f"unknown contrast kind: {self.kind!r}")

    @classmethod
    def linear(cls, coefficients: Sequence[float]) -> "ContrastFunction":
        return cls(kind="linear", coefficients=tuple(coefficients))

    @classmethod
    def smooth(cls, func, grad=None) -> "ContrastFunction":
        return cls(kind="smooth", func=func, grad=grad)

    def value(self, omega: np.ndarray) -> float:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "linear":
            coef = np.asarray(self.coefficients)
            if coef.shape != omega.shape:
                raise ValueError(
                    f"contrast length {coef.size} does not match wAUC vector length {omega.size}"
                )
            return float(coef @ omega)
        return float(self.func(omega))

    def gradient(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "linear":
            coef = np.asarray(self.coefficients)
            if coef.shape != omega.shape:
                raise ValueError(
                    f"contrast length {coef.size} does not match wAUC vector length {omega.size}"
                )
            return coef.copy()
        if self.grad is not None:
            out = np.asarray(self.grad(omega), dtype=float)
            if out.shape != omega.shape:
                raise ValueError("user gradient has wrong shape")
            return out
        return self._numeric_gradient(omega)

    def _numeric_gradient(self, omega: np.ndarray) -> np.ndarray:
        out = np.empty_like(omega)
        for i in range(omega.size):
            hi = omega.copy()
            lo = omega.copy()
            hi[i] += GRADIENT_STEP
            lo[i] -= GRADIENT_STEP
            out[i] = (self.func(hi) - self.func(lo)) / (2.0 * GRADIENT_STEP)
        return out

    def check_gradient(self, omega: np.ndarray, tol: float = 1e-4) -> bool:
        """Compare the declared gradient against central differences."""
        if self.kind == "linear" or self.grad is None:
            return True
        omega = np.asarray(omega, dtype=float)
        declared = self.gradient(omega)
        numeric = self._numeric_gradient(omega)
        scale = max(1.0, float(np.max(np.abs(declared))))
        return bool(np.max(np.abs(declared - numeric)) <= tol * scale)
