"""Regenerate reference.json: the workload pools and their expected outputs.

    python3 perfbench/make_reference.py

Run it at the commit whose outputs are the reference; the committed file was
made at the seed commit (its git SHA and source digest are recorded in it).
All pool inputs are drawn from POOL_SEED:

- sweep: per built-in family, POOL_SIZE optimiser seeds; each entry keeps
  every row of `sweep --points 6 --seed k`.  Per family: d, the t grid, the
  closed-form beta_sep and whether the range ends maximally entangled.
- bounds-random: per d = 5..10, POOL_SIZE flat Dirichlet spectra with the
  four bounds `bounds` reported.
- certify: per d = 8, 9, full rank and zero-padded from rank 2..4,
  POOL_SIZE spectra, each with a `verify` seed.

Every entry also records the optimiser's total iterations and whether every
call converged.  Entries that hit the iteration cap are kept.
"""

from __future__ import annotations

import json

import numpy as np

import run
import workloads
from tracer import Tracer

POOL_SEED = 708_3154


def draw_pools() -> dict:
    """Pool inputs per workload and stratum, each workload from its own
    stream of POOL_SEED, before any call is made."""
    size = workloads.POOL_SIZE
    rng = np.random.default_rng([POOL_SEED, 0])
    sweep = {f: [{"seed": int(rng.integers(2**31))} for _ in range(size["sweep"])]
             for f in workloads.FAMILIES}
    rng = np.random.default_rng([POOL_SEED, 1])
    bounds = {
        str(d): [{"schmidt": workloads.format_spectrum(
            workloads.dirichlet_spectrum(rng, d, d))} for _ in range(size["bounds-random"])]
        for d in workloads.BOUNDS_DIMS
    }
    rng = np.random.default_rng([POOL_SEED, 2])
    certify = {}
    for padded in (False, True):
        for d in workloads.CERTIFY_DIMS:
            entries = []
            for _ in range(size["certify"]):
                rank = int(rng.choice(workloads.PAD_RANKS)) if padded else d
                entries.append({
                    "schmidt": workloads.format_spectrum(
                        workloads.dirichlet_spectrum(rng, d, rank)),
                    "seed": int(rng.integers(2**31)),
                })
            certify[f"{d}-padded" if padded else f"{d}-full"] = entries
    return {"sweep": sweep, "bounds-random": bounds, "certify": certify}


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    cli, _, _ = run.setup("certify")
    import loccdist.families as families

    pools = draw_pools()
    tracer = Tracer()
    tracer.install({"optimize.beta_two_way_upper": lambda a, k, r: (r.iterations, r.converged)},
                   "loccdist")
    observed = tracer.observed["optimize.beta_two_way_upper"]
    try:
        for workload, strata in pools.items():
            for name, entries in strata.items():
                for entry in entries:
                    del observed[:]
                    call = workloads.MAKE_CALL[workload]({}, name, entry, run.OUT)
                    rc, stdout = run.invoke(cli, call.argv)
                    if rc != 0:
                        raise RuntimeError(f"{call.argv} exited {rc}")
                    if workload == "sweep":
                        entry["rows"] = workloads.read_sweep_csv(
                            run.OUT / f"sweep-{name}.csv")
                    elif workload == "bounds-random":
                        report = json.loads(stdout)
                        entry.update({k: report[k] for k in workloads.BETAS})
                    entry["iterations"] = sum(it for it, _ in observed)
                    entry["converged"] = all(ok for _, ok in observed)
                    print(workload, name, entry["iterations"], entry["converged"], flush=True)
    finally:
        tracer.uninstall()

    fams = {}
    for name in workloads.FAMILIES:
        family = families.BUILTIN_FAMILIES[name]
        t = [float(x) for x in family.grid(workloads.SWEEP_POINTS)]
        fams[name] = {
            "d": family.d,
            "max_entangled_end": family.max_entangled_end,
            "t": t,
            "beta_sep_closed": [float(family.beta_sep_closed(x)) for x in t],
        }
    reference = {
        "generated_from": {"git_sha": run.git_sha(), "src_sha256": run.source_digest()},
        "pool_seed": POOL_SEED,
        "sweep": {"families": fams, "strata": pools["sweep"]},
        "bounds-random": {"strata": pools["bounds-random"]},
        "certify": {"strata": pools["certify"]},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
