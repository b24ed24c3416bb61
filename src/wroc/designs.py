"""Study designs: which strata of the wAUC vector are paired.

A design is ``(kind, n_pairs)``: ``n_pairs`` strata of one arm are compared
with ``n_pairs`` strata of the other, and everything else about the layout
derives from those two values.

* ``readers``: a multi-reader, two-modality study.  The arms are the two
  modalities, and a pair is one reader under both.  The dataset holds
  ``2 * n_pairs`` markers; marker ``r`` is reader ``r`` under modality 1 and
  marker ``n_pairs + r`` is the same reader under modality 2.  Times are
  pooled (usually a single time).
* ``longitudinal``: the arms are two markers, and a pair is one of the
  ``n_pairs`` time points.  The wAUC vector runs over the (marker, time)
  grid, marker-major, and entry ``(1, k)`` is paired with ``(2, k)``.

Both kinds therefore expose a vector of ``2 * n_pairs`` strata whose first
half is compared against the second half; the signed contrast matrix
(:meth:`StudyDesign.contrast_matrix`) is the one statement of that pairing.
:meth:`StudyDesign.selector` writes the text form :func:`parse_design` reads.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError


@dataclass(frozen=True)
class StudyDesign:
    """``n_pairs`` strata of one arm paired with ``n_pairs`` of the other;
    ``kind`` ("readers" or "longitudinal") says what the arms are."""

    kind: str
    n_pairs: int

    def __post_init__(self):
        if self.kind not in ("readers", "longitudinal"):
            raise ValueError(f"unknown design kind: {self.kind!r}")
        count = "n_readers" if self.kind == "readers" else "n_times"
        # numpy integers count too, and are stored as int; bools and floats
        # (even whole ones) do not
        if isinstance(self.n_pairs, bool) or not isinstance(self.n_pairs, numbers.Integral):
            raise ValueError(f"{self.kind} design needs an integer {count}, "
                             f"got {self.n_pairs!r}")
        object.__setattr__(self, "n_pairs", int(self.n_pairs))
        if self.n_pairs < 1:
            raise ValueError(f"{self.kind} design needs {count} >= 1")

    @classmethod
    def readers(cls, n_readers: int) -> "StudyDesign":
        return cls("readers", n_readers)

    @classmethod
    def longitudinal(cls, n_times: int) -> "StudyDesign":
        return cls("longitudinal", n_times)

    def selector(self) -> str:
        """The text form :func:`parse_design` reads back to this design."""
        return f"{self.kind}:{self.n_pairs}"

    # -- stratum layout --------------------------------------------------

    @property
    def n_readers(self) -> int:
        return self.n_pairs if self.kind == "readers" else 0

    @property
    def n_markers(self) -> int:
        return 2 * self.n_pairs if self.kind == "readers" else 2

    @property
    def n_times(self) -> int:
        return 1 if self.kind == "readers" else self.n_pairs

    def strata(self) -> list[tuple[int, int | None]]:
        """(marker, time) per stratum; time None means pooled over times."""
        return list(self._strata)

    def labels(self) -> list[str]:
        return list(self._labels)

    def contrast_matrix(self) -> np.ndarray:
        """Signed pairing matrix A, shape (2 * n_pairs, n_pairs).

        Column p has +1 at stratum p (first half) and -1 at stratum
        n_pairs + p (second half), so A' omega is the vector of paired
        differences.
        """
        return self._contrast.copy()

    # built once per design and shared by the estimators, the covariance and
    # the contrasts; the public methods above hand out copies

    @functools.cached_property
    def _strata(self) -> tuple[tuple[int, int | None], ...]:
        if self.kind == "readers":
            return tuple((marker, None) for marker in range(1, 2 * self.n_pairs + 1))
        return tuple(
            (marker, time)
            for marker in (1, 2)
            for time in range(1, self.n_pairs + 1)
        )

    @functools.cached_property
    def _labels(self) -> tuple[str, ...]:
        if self.kind == "readers":
            return tuple(
                f"reader{reader}_modality{modality}"
                for modality in (1, 2)
                for reader in range(1, self.n_pairs + 1)
            )
        return tuple(
            f"marker{marker}_time{time}"
            for marker in (1, 2)
            for time in range(1, self.n_pairs + 1)
        )

    @functools.cached_property
    def _contrast(self) -> np.ndarray:
        """The contrast matrix, read-only."""
        pairs = self.n_pairs
        mat = np.zeros((2 * pairs, pairs))
        for p in range(pairs):
            mat[p, p] = 1.0
            mat[pairs + p, p] = -1.0
        mat.setflags(write=False)
        return mat


def parse_design(text: str) -> StudyDesign:
    """Parse ``readers:<R>`` or ``longitudinal:<K>``."""
    token = text.strip()
    try:
        for kind in ("readers", "longitudinal"):
            if token.startswith(kind + ":"):
                return StudyDesign(kind, int(token[len(kind) + 1:]))
    except ValueError as exc:
        raise DataFormatError(f"bad design selector {text!r}: {exc}") from exc
    raise DataFormatError(f"unknown design selector {text!r}")
