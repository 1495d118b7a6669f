"""Per-state summary of the four discrimination error bounds."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from .optimize import OptimizerConfig, beta_two_way_upper, solve_spectra
from .separable import sep_traces
from .states import SchmidtSpectrum
from .two_way import check_tables, table_layout

ORDER_TOL = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Global, separable, two-way-upper and one-way error values for the
    pure state with Schmidt coefficients spectrum.

    delta_star holds the minimising table of the two-way bound, flattened
    row-major over its feasible entries and rendered as comma-separated
    decimals (a single number for a two-outcome system's first row entry
    plus its complements).  flags is always empty; its JSON key stays.
    """

    spectrum: tuple
    D: int
    beta_g: float
    beta_one_way: float
    beta_sep: float
    beta_two_way_upper: float
    delta_star: str
    flags: str = ""

    def ordering_ok(self, tol: float = ORDER_TOL) -> bool:
        """The chain beta_g <= beta_sep <= beta_two_way <= beta_one_way."""
        return (
            self.beta_g <= self.beta_sep + tol
            and self.beta_sep <= self.beta_two_way_upper + tol
            and self.beta_two_way_upper <= self.beta_one_way + tol
        )

    def to_dict(self) -> dict:
        """The fields in order, as JSON keys; spectrum as one string."""
        return {**asdict(self), "spectrum": ",".join(format(x, ".12g") for x in self.spectrum)}


def _delta_strings(tables: np.ndarray) -> list[str]:
    """Each table's free entries d_ki, k <= i, row-major, to nine digits,
    for an (n, d, d) stack of tables."""
    upper = table_layout(tables.shape[-1]).upper
    return [",".join(format(x, ".9g") for x in row) for row in tables[:, upper].tolist()]


def _delta_string(delta) -> str:
    """The table's free entries d_ki, k <= i, row-major, to nine digits."""
    return _delta_strings(delta.table[None])[0]


def _pure_reports(lams: np.ndarray, D: int, t_values, deltas) -> list[BoundsReport]:
    """The report of the pure state of each checked spectrum, a row of lams
    (n, d), embedded in dimension D, given its two-way t_value and table
    string."""
    ranks = np.count_nonzero(lams, axis=1).tolist()
    rows = zip(lams.tolist(), ranks, sep_traces(lams), t_values, deltas)
    return [
        BoundsReport(
            spectrum=tuple(lam),
            D=D,
            beta_g=1.0 / D,
            beta_one_way=rank / D,
            beta_sep=sep_trace / D,
            beta_two_way_upper=t_value / D,
            delta_star=delta,
        )
        for lam, rank, sep_trace, t_value, delta in rows
    ]


def embedding_dim(s: SchmidtSpectrum, dims: tuple[int, int] | None = None) -> int:
    """The total dimension D of the state's embedding: d**2 by default, or
    dA * dB for dims = (dA, dB).  Raises ValueError unless each local
    dimension holds the Schmidt rank and 1 / D is a float."""
    if dims is None:
        return s.dim**2
    dA, dB = dims
    if min(dA, dB) < s.rank:
        raise ValueError(
            f"dims {dA},{dB} cannot hold a Schmidt-rank-{s.rank} state: each must be >= {s.rank}"
        )
    D = dA * dB
    if D > sys.float_info.max:
        raise ValueError("dims give a total dimension too large for a float")
    return D


def pure_state_report(s: SchmidtSpectrum, dims: tuple[int, int] | None = None) -> BoundsReport:
    """All four bounds for the pure state with the given Schmidt spectrum.

    dims overrides the embedding, as embedding_dim checks it (the protocol
    runs on the effective rank; only the normalisation 1/D changes).
    """
    D = embedding_dim(s, dims)
    result = beta_two_way_upper(s)
    return _pure_reports(s.lambdas[None], D, [result.t_value], [_delta_string(result.best_delta)])[0]


def pure_state_reports(lams: np.ndarray) -> list[BoundsReport]:
    """pure_state_report of the spectrum in each row of lams (n, d), checked
    by states.check_spectra: the two-way values come from the arrays of one
    stacked solve per effective rank (optimize.solve_spectra), and no
    spectrum, table or result object is built."""
    n, d = lams.shape
    t_values, deltas = [0.0] * n, [""] * n
    for rows, solved in solve_spectra(lams, OptimizerConfig().tol):
        tables = check_tables(solved.tables)  # DeltaMatrix's rules, once per stack
        for i, t_value, delta in zip(rows.tolist(), solved.t_values.tolist(), _delta_strings(tables)):
            t_values[i], deltas[i] = t_value, delta
    return _pure_reports(lams, d * d, t_values, deltas)
