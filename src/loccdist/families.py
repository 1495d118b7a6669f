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

from .bounds import BoundsReport, pure_state_reports
from .optimize import stack_size
from .states import check_spectra

FEAS_TOL = 1e-12
MAX_POINTS = 1_000_000  # batched two-way solves at d <= 4: about ten minutes of work
SWEEP_HEADER = "t,beta_g,beta_one_way,beta_sep,beta_two_way_upper\n"  # sweep_line's columns


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

    def coefficients(self, t) -> np.ndarray:
        """lambda(t) for a scalar t, (d,), or an (n,) array of them, (n, d)."""
        return np.array(self.base) + np.array(self.slope) * np.asarray(t)[..., None]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """The range is two finite numbers lo < hi, and the coefficients stay
        nonnegative and normalised across it; a FamilySpec checks this when
        it is built.

        An overflow gives +-inf, which fails one of the two coefficient
        checks, so numpy's overflow warning is suppressed."""
        lo, hi = self.t_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range must be finite with lo < hi, got {lo!r},{hi!r}")
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

    def spectra_array(self, ts) -> np.ndarray:
        """The spectrum at each t of ts as one (n, d) array: lambda(t)
        clipped at 0, checked by SchmidtSpectrum's rules
        (states.check_spectra), so that row i is bit for bit the lambdas of
        SchmidtSpectrum(lambda(ts[i]) clipped at 0).  Raises ValueError if
        any t lies outside the family's range."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.t_range
        outside = ~((ts >= lo - FEAS_TOL) & (ts <= hi + FEAS_TOL))  # NaN included
        if outside.any():
            raise ValueError(f"t={float(ts[outside][0])} outside range [{lo}, {hi}]")
        return check_spectra(np.clip(self.coefficients(ts), 0.0, None))

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

_NUM = r"[0-9]+(?:\.[0-9]+)?(?:/[0-9]+(?:\.[0-9]+)?)?"  # ASCII digits only
# A family term a + b t: a constant, a multiple of t, or both.  The constant
# comes first and is one only when a sign or the end follows it, so "2t" is
# 2 t and "1-2t" is 1 - 2 t; the empty term is refused.  \A and \Z anchor
# at the very ends: "$" would also match before a final newline.
_TERM_RE = re.compile(
    rf"\A(?!\Z)(?P<a>[+-]?{_NUM}(?=[+-]|\Z))?"  # the constant
    rf"(?:(?P<sign>[+-]?)(?P<coef>{_NUM})?\*?t)?\Z"  # the multiple of t
)


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
    m = _TERM_RE.match(token)
    if m is None:
        raise ValueError(f"cannot parse family term {token!r}")
    a, sign, coef = m.group("a", "sign", "coef")
    b = 0.0
    if sign is not None:  # the term has a multiple of t
        b = _parse_number(coef) if coef else 1.0
    return _parse_number(a) if a else 0.0, -b if sign == "-" else b


def parse_family(expr: str, t_range: tuple[float, float], name: str = "custom") -> FamilySpec:
    """Parse "1-2t,t,t"-style affine coefficient lists."""
    base, slope = [], []
    for token in expr.split(","):
        a, b = _parse_term(token)
        base.append(a)
        slope.append(b)
    return FamilySpec(name, tuple(base), tuple(slope), tuple(float(x) for x in t_range))


def get_family(name_or_expr: str, t_range=None) -> FamilySpec:
    """A built-in family by name, or a parsed expression on t_range.

    A built-in family has its own range and takes no t_range; a custom
    expression needs one (FamilySpec.validate checks it).
    """
    if name_or_expr in BUILTIN_FAMILIES:
        if t_range is not None:
            raise ValueError(f"family {name_or_expr} has a fixed t range; only custom families take one")
        return BUILTIN_FAMILIES[name_or_expr]
    if t_range is None:
        raise ValueError(
            f"unknown family {name_or_expr!r}; custom expressions need an explicit range"
        )
    return parse_family(name_or_expr, t_range)


def sweep_rows(family: FamilySpec, points: int):
    """Yield (t, report) along the family parameter grid, in increasing t
    order, as the points are solved.

    The grid is solved in chunks of consecutive points, each at most one
    stack at the family's dimension (stack_size), so only one chunk is held
    at a time.  A chunk is computed as arrays: its spectra
    (FamilySpec.spectra_array) and their bounds (bounds.pure_state_reports),
    each report being the pure_state_report of its spectrum.
    """
    grid = family.grid(points)
    size = stack_size(family.d)
    for lo in range(0, points, size):
        ts = grid[lo : lo + size]
        yield from zip(ts.tolist(), pure_state_reports(family.spectra_array(ts)))


def sweep_line(t: float, report: BoundsReport) -> str:
    """One sweep CSV row under SWEEP_HEADER: t and the four bounds, each to
    nine significant digits."""
    values = (t, report.beta_g, report.beta_one_way, report.beta_sep, report.beta_two_way_upper)
    return ",".join(format(x, ".9g") for x in values) + "\n"


def sweep(family: FamilySpec, points: int) -> list[tuple[float, BoundsReport]]:
    """Bounds along the family parameter grid, in increasing t order: the
    rows of sweep_rows, as one list."""
    return list(sweep_rows(family, points))
