"""One-parameter spectrum families and bound sweeps.

Each family maps a parameter t to Schmidt coefficients lambda_k(t) =
a_k + b_k * t.  The built-ins cover the two-outcome curve and the five
qutrit/ququart families whose separable-bound closed forms are known:

  fig1  (1-t, t)                     t in [0, 1/2]
  fig2  (1-2t, t, t)                 t in [0, 1/3]
  fig3  (1-3t, 2t, t)                t in [0, 1/5]
  fig4  (1-4t, 3t, t)                t in [0, 1/7]
  fig5  (1-3t, t, t, t)              t in [0, 1/4]
  fig6  (1-(9/2)t, 2t, (3/2)t, t)    t in [0, 2/13]

fig1, fig2 and fig5 end at the maximally entangled state; the other ranges
stop earlier (their endpoint keeps the coefficients ordered but not equal).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import BoundsReport, pure_state_report
from .states import SchmidtSpectrum

FEAS_TOL = 1e-12
MAX_POINTS = 1_000_000  # one two-way solve per point: about an hour of work


@dataclass(frozen=True)
class FamilySpec:
    """Affine spectrum family lambda_k(t) = base_k + slope_k * t on [t_min, t_max]."""

    name: str
    base: tuple
    slope: tuple
    t_range: tuple
    beta_sep_closed: Callable[[float], float] | None = None
    max_entangled_end: bool = False

    @property
    def d(self) -> int:
        return len(self.base)

    def coefficients(self, t: float) -> np.ndarray:
        return np.array(self.base) + np.array(self.slope) * t

    def validate(self) -> None:
        """Coefficients stay nonnegative and normalised across the range.

        An overflow gives +-inf, which fails one of the two checks, so
        numpy's overflow warning is suppressed."""
        for t in self.t_range:
            with np.errstate(over="ignore", invalid="ignore"):
                lam = self.coefficients(t)
                total = lam.sum()
            if np.min(lam) < -FEAS_TOL:
                raise ValueError(
                    f"family {self.name}: negative coefficient {np.min(lam):.3e} at t={t}"
                )
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"family {self.name}: coefficients sum to {float(total)} at t={t}")

    def spectrum_at(self, t: float) -> SchmidtSpectrum:
        lo, hi = self.t_range
        if not lo - FEAS_TOL <= t <= hi + FEAS_TOL:
            raise ValueError(f"t={t} outside range [{lo}, {hi}]")
        return SchmidtSpectrum(np.clip(self.coefficients(t), 0.0, None))

    def grid(self, points: int) -> np.ndarray:
        check_points(points)
        return np.linspace(self.t_range[0], self.t_range[1], points)


def check_points(points: int) -> None:
    """Raise unless a sweep grid of this many points can be built and run."""
    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"a sweep takes 2 to {MAX_POINTS} points, got {points}")


BUILTIN_FAMILIES = {
    "fig1": FamilySpec(
        "fig1",
        (1.0, 0.0),
        (-1.0, 1.0),
        (0.0, 0.5),
        lambda t: 0.25 + 0.5 * np.sqrt(t * (1.0 - t)),
        max_entangled_end=True,
    ),
    "fig2": FamilySpec(
        "fig2",
        (1.0, 0.0, 0.0),
        (-2.0, 1.0, 1.0),
        (0.0, 1.0 / 3.0),
        lambda t: (np.sqrt(1.0 - 2.0 * t) + 2.0 * np.sqrt(t)) ** 2 / 9.0,
        max_entangled_end=True,
    ),
    "fig3": FamilySpec(
        "fig3",
        (1.0, 0.0, 0.0),
        (-3.0, 2.0, 1.0),
        (0.0, 0.2),
        lambda t: (np.sqrt(1.0 - 3.0 * t) + (1.0 + np.sqrt(2.0)) * np.sqrt(t)) ** 2 / 9.0,
    ),
    "fig4": FamilySpec(
        "fig4",
        (1.0, 0.0, 0.0),
        (-4.0, 3.0, 1.0),
        (0.0, 1.0 / 7.0),
        lambda t: (np.sqrt(1.0 - 4.0 * t) + (1.0 + np.sqrt(3.0)) * np.sqrt(t)) ** 2 / 9.0,
    ),
    "fig5": FamilySpec(
        "fig5",
        (1.0, 0.0, 0.0, 0.0),
        (-3.0, 1.0, 1.0, 1.0),
        (0.0, 0.25),
        lambda t: (np.sqrt(1.0 - 3.0 * t) + 3.0 * np.sqrt(t)) ** 2 / 16.0,
        max_entangled_end=True,
    ),
    "fig6": FamilySpec(
        "fig6",
        (1.0, 0.0, 0.0, 0.0),
        (-4.5, 2.0, 1.5, 1.0),
        (0.0, 2.0 / 13.0),
        lambda t: (
            np.sqrt(1.0 - 4.5 * t)
            + (1.0 + np.sqrt(1.5) + np.sqrt(2.0)) * np.sqrt(t)
        )
        ** 2
        / 16.0,
    ),
}

_NUM = r"\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?"
_CONST_RE = re.compile(rf"^(?P<a>[+-]?{_NUM})$")
_LINEAR_RE = re.compile(rf"^(?P<sign>[+-]?)(?P<coef>{_NUM})?\*?t$")
_AFFINE_RE = re.compile(rf"^(?P<a>[+-]?{_NUM})(?P<sign>[+-])(?P<coef>{_NUM})?\*?t$")


def _parse_number(text: str) -> float:
    num, _, den = text.partition("/")
    value = float(num)
    if den:
        if not float(den):
            raise ValueError(f"zero denominator in {text!r}")
        value /= float(den)
    if not math.isfinite(value):
        raise ValueError(f"coefficient {text!r} is not finite")
    return value


def _parse_term(token: str) -> tuple[float, float]:
    token = token.replace(" ", "")
    m = _CONST_RE.match(token)
    if m:
        return _parse_number(m.group("a")), 0.0
    m = _LINEAR_RE.match(token)
    if m:
        coef = _parse_number(m.group("coef")) if m.group("coef") else 1.0
        return 0.0, -coef if m.group("sign") == "-" else coef
    m = _AFFINE_RE.match(token)
    if m:
        coef = _parse_number(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        return _parse_number(m.group("a")), coef
    raise ValueError(f"cannot parse family term {token!r}")


def parse_family(expr: str, t_range: tuple[float, float], name: str = "custom") -> FamilySpec:
    """Parse "1-2t,t,t"-style affine coefficient lists."""
    base, slope = [], []
    for token in expr.split(","):
        a, b = _parse_term(token)
        base.append(a)
        slope.append(b)
    fam = FamilySpec(name, tuple(base), tuple(slope), (float(t_range[0]), float(t_range[1])))
    fam.validate()
    return fam


def get_family(name_or_expr: str, t_range=None) -> FamilySpec:
    """A built-in family by name, or a parsed expression on t_range.

    A built-in family has its own range and takes no t_range; a custom
    expression needs one of two finite numbers lo < hi.
    """
    if t_range is not None:
        lo, hi = (float(x) for x in t_range)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range must be finite with lo < hi, got {lo!r},{hi!r}")
    if name_or_expr in BUILTIN_FAMILIES:
        if t_range is not None:
            raise ValueError(f"family {name_or_expr} has a fixed t range; only custom families take one")
        return BUILTIN_FAMILIES[name_or_expr]
    if t_range is None:
        raise ValueError(
            f"unknown family {name_or_expr!r}; custom expressions need an explicit range"
        )
    return parse_family(name_or_expr, t_range)


def sweep(family: FamilySpec, points: int) -> list[tuple[float, BoundsReport]]:
    """Bounds along the family parameter grid, in increasing t order."""
    family.validate()
    out = []
    for t in family.grid(points):
        report = pure_state_report(family.spectrum_at(float(t)))
        out.append((float(t), report))
    return out
