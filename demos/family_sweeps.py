"""Sweeping the built-in spectrum families.

Reproduces the bound curves for the six one-parameter families (one
two-outcome, three qutrit, two ququart) at a coarse resolution and writes
one CSV per family.  Along every family the chain

    beta_g <= beta_sep <= beta_two_way_upper <= beta_one_way

holds pointwise, the separable column follows its closed form, and the
two-way column stays strictly below the one-way plateau except at the
endpoints where the state is a product or maximally entangled.

Run:  python demos/family_sweeps.py          (about a second)
      python demos/family_sweeps.py fig2     (a single family)
"""

import os
import sys

from loccdist import BUILTIN_FAMILIES, sweep
from loccdist.families import SWEEP_HEADER, sweep_line

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS = 15


def run_family(name):
    family = BUILTIN_FAMILIES[name]
    rows = sweep(family, POINTS)
    path = os.path.join(HERE, f"{name}_sweep.csv")
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER)
        fh.writelines(sweep_line(t, report) for t, report in rows)

    gaps = [r.beta_one_way - r.beta_two_way_upper for _, r in rows]
    sep_dev = max(abs(r.beta_sep - family.beta_sep_closed(t)) for t, r in rows)
    ordered = all(r.ordering_ok() for _, r in rows)
    print(f"{name} (d = {family.d}, t in [{family.t_range[0]:.4g}, {family.t_range[1]:.4g}])")
    print(f"  chain holds at all {POINTS} points: {ordered}")
    print(f"  separable column matches closed form to {sep_dev:.1e}")
    print(f"  one-way vs two-way gap: up to {max(gaps):.4f}")
    print(f"  wrote {path}")


def main():
    names = sys.argv[1:] or list(BUILTIN_FAMILIES)
    for name in names:
        run_family(name)


if __name__ == "__main__":
    main()
