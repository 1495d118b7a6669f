"""Per-state summary of the four discrimination error bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .one_way import beta_one_way
from .operators import numerical_rank
from .optimize import beta_two_way_upper
from .separable import beta_sep_pure, sep_lower_bound_mixed
from .states import BipartiteState, SchmidtSpectrum

ORDER_TOL = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Global, separable, two-way-upper and one-way error values for one state.

    delta_star holds the minimising table of the two-way bound, flattened
    row-major over its feasible entries and rendered as comma-separated
    decimals (a single number for a two-outcome system's first row entry
    plus its complements).  flags is empty for pure states; mixed-state
    reports carry "lower-bound" because only beta_g is exact there.

    spectrum holds the Schmidt coefficients for a pure-state report; a
    mixed-state report (mixed_state_report) puts the eigenvalues of rho
    there instead, in decreasing order, under the same field and JSON key.
    """

    spectrum: tuple
    D: int
    beta_g: float
    beta_one_way: float
    beta_sep: float
    beta_two_way_upper: float | None
    delta_star: str
    flags: str = ""

    def ordering_ok(self, tol: float = ORDER_TOL) -> bool:
        """The chain beta_g <= beta_sep <= beta_two_way <= beta_one_way."""
        if self.beta_two_way_upper is None:
            return True
        return (
            self.beta_g <= self.beta_sep + tol
            and self.beta_sep <= self.beta_two_way_upper + tol
            and self.beta_two_way_upper <= self.beta_one_way + tol
        )

    def to_dict(self) -> dict:
        return {
            "spectrum": ",".join(format(x, ".12g") for x in self.spectrum),
            "D": self.D,
            "beta_g": self.beta_g,
            "beta_one_way": self.beta_one_way,
            "beta_sep": self.beta_sep,
            "beta_two_way_upper": self.beta_two_way_upper,
            "delta_star": self.delta_star,
            "flags": self.flags,
        }


def _delta_string(delta) -> str:
    parts = []
    d = delta.d
    for k in range(d):
        for i in range(k, d):
            parts.append(format(delta.table[k, i], ".9g"))
    return ",".join(parts)


def pure_state_report(s: SchmidtSpectrum, dims: tuple[int, int] | None = None) -> BoundsReport:
    """All four bounds for the pure state with the given Schmidt spectrum.

    dims overrides the embedding (the protocol runs on the effective rank;
    only the normalisation 1/D changes).
    """
    D = dims[0] * dims[1] if dims is not None else s.dim**2
    if D < s.rank**2:
        raise ValueError(f"dims give D = {D}, too small for Schmidt rank {s.rank}")
    result = beta_two_way_upper(s)
    return BoundsReport(
        spectrum=tuple(float(x) for x in s.lambdas),
        D=D,
        beta_g=1.0 / D,
        beta_one_way=s.rank / D,
        beta_sep=beta_sep_pure(s, D),
        beta_two_way_upper=result.t_value / D,
        delta_star=_delta_string(result.best_delta),
    )


def mixed_state_report(state: BipartiteState) -> BoundsReport:
    """Bounds for a general density matrix.

    beta_g is exact (rank / D); the separable and one-way entries are the
    proved lower bounds, and no two-way value is reported (the three-step
    protocol machinery covers pure states).
    """
    D = state.total_dim
    rho = state.density()
    spectrum_vals, _ = np.linalg.eigh(rho)
    return BoundsReport(
        spectrum=tuple(float(x) for x in spectrum_vals[::-1]),
        D=D,
        beta_g=numerical_rank(rho) / D,
        beta_one_way=beta_one_way(state),
        beta_sep=sep_lower_bound_mixed(state),
        beta_two_way_upper=None,
        delta_star="",
        flags="lower-bound",
    )
