"""Weight measures on the false-positive-rate axis.

A weighted AUC is the integral of the empirical ROC curve against a finite
measure W on (0, 1).  Three measure shapes are supported:

* ``full``   Lebesgue measure on (0, 1); the plain AUC.
* ``pauc``   Lebesgue measure restricted to (lower, upper), of mass
             ``upper - lower``; ``normalized`` divides estimates by that
             mass (and covariances by its square).
* ``steps``  a finite sum of atoms; to normalize, divide the masses by their
             total.  One atom of mass 1 (``point_mass``, selector
             ``sens:u``) makes the wAUC the sensitivity at its rate.

Each kind takes only the fields it uses, and any other field off its
default raises ``ValueError``, so every measure has one selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataFormatError

# the fields each kind reads; the others must keep their defaults
_KIND_FIELDS = {"full": (), "pauc": ("lower", "upper", "normalized"), "steps": ("atoms",)}


@dataclass(frozen=True)
class WeightMeasure:
    kind: str
    lower: float = 0.0
    upper: float = 1.0
    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown weight measure kind: {self.kind!r}")
        off_default = {"lower": self.lower != 0.0, "upper": self.upper != 1.0,
                       "atoms": bool(self.atoms), "normalized": bool(self.normalized)}
        extra = [name for name, off in off_default.items()
                 if off and name not in _KIND_FIELDS[self.kind]]
        if extra:
            raise ValueError(f"{self.kind} measure takes no {', '.join(extra)}")
        object.__setattr__(self, "normalized", bool(self.normalized))
        if self.kind == "pauc":
            if not (0.0 <= self.lower < self.upper <= 1.0):
                raise ValueError(
                    f"partial-AUC window must satisfy 0 <= lower < upper <= 1, "
                    f"got ({self.lower}, {self.upper})"
                )
        if self.kind == "steps":
            if not self.atoms:
                raise ValueError("atomic measure needs at least one atom")
            for u, mass in self.atoms:
                if not 0.0 < u < 1.0:
                    raise ValueError(f"atom location {u} outside (0, 1)")
                if not (math.isfinite(mass) and mass > 0.0):
                    raise ValueError(f"atom mass {mass} must be positive and finite")
            # canonical order makes reports and covariance grids deterministic
            object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))
            if not math.isfinite(self.total_mass):
                raise ValueError(f"atom masses sum to {self.total_mass}, which is not finite")

    # -- constructors ----------------------------------------------------

    @classmethod
    def full_auc(cls) -> "WeightMeasure":
        return cls(kind="full")

    @classmethod
    def partial_auc(cls, lower: float, upper: float, normalized: bool = False) -> "WeightMeasure":
        return cls(kind="pauc", lower=float(lower), upper=float(upper), normalized=normalized)

    @classmethod
    def point_mass(cls, at: float) -> "WeightMeasure":
        """One atom of mass 1 at rate ``at``: the sensitivity there."""
        return cls(kind="steps", atoms=((float(at), 1.0),))

    @classmethod
    def steps(cls, atoms) -> "WeightMeasure":
        return cls(kind="steps", atoms=tuple((float(u), float(m)) for u, m in atoms))

    # -- properties ------------------------------------------------------

    @property
    def total_mass(self) -> float:
        if self.kind == "full":
            return 1.0
        if self.kind == "pauc":
            return self.upper - self.lower
        return sum(m for _, m in self.atoms)

    @property
    def is_atomic(self) -> bool:
        return self.kind == "steps"

    def selector(self) -> str:
        """Round-trippable text form, the same grammar ``parse_measure`` reads."""
        if self.kind == "full":
            return "auc"
        if self.kind == "pauc":
            text = f"pauc:{_number(self.lower)},{_number(self.upper)}"
            return text + ":normalized" if self.normalized else text
        if len(self.atoms) == 1 and self.atoms[0][1] == 1.0:
            return f"sens:{_number(self.atoms[0][0])}"
        return "steps:" + ",".join(f"{_number(u)}={_number(m)}" for u, m in self.atoms)


def _number(x: float) -> str:
    """``x`` in ``:g`` form when that reads back to the same float, else in
    full (``repr``) precision."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def parse_measure(text: str) -> WeightMeasure:
    """Parse a measure selector.

    Grammar: ``auc`` | ``pauc:<u1>,<u2>[:normalized]`` | ``sens:<u0>`` |
    ``steps:<u1>=<m1>,<u2>=<m2>,...``.
    """
    token = text.strip()
    try:
        if token == "auc":
            return WeightMeasure.full_auc()
        if token.startswith("pauc:"):
            rest = token[len("pauc:"):]
            normalized = False
            if rest.endswith(":normalized"):
                normalized = True
                rest = rest[: -len(":normalized")]
            lo_text, hi_text = rest.split(",")
            return WeightMeasure.partial_auc(float(lo_text), float(hi_text), normalized)
        if token.startswith("sens:"):
            return WeightMeasure.point_mass(float(token[len("sens:"):]))
        if token.startswith("steps:"):
            atoms = []
            for part in token[len("steps:"):].split(","):
                u_text, m_text = part.split("=")
                atoms.append((float(u_text), float(m_text)))
            return WeightMeasure.steps(atoms)
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"bad measure selector {text!r}: {exc}") from exc
    raise DataFormatError(f"unknown measure selector {text!r}")
