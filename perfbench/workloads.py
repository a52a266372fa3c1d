"""Workload definitions shared by the orchestrator and the worker.

Why these three (each is a closed loop, one client, one process):

* ``dblp-years``: integer births leave only a handful of change points in
  the observation window, so labeling is light and the per-pair work
  dominates: snapshot series, aggregation, build, the CSV round trip and
  the concordance index.  Observed times are heavily tied.
* ``dblp-stream``: continuous births give one change point per paper in
  the observation window, so ``label_pairs`` and the per-time prefix
  cache dominate.  It also covers the exponential-smoothing aggregator.
* ``synth-fit``: no graph work.  The fit sees tens of thousands of
  untied observed rows, and the query loop runs against a model with as
  many knots, so storage of the cumulative hazard shows on both sides.

What the workload seed draws, and why not more:

* Graph workloads fix the structure with ``structure_seed``; the workload
  seed draws an isomorphic relabeling (see ``dblpgen.relabel``).  Freshly
  drawn structures change the fit's outer-iteration count (3 to 5) and
  its inner work by 2x at this size, while relabelings of one structure
  keep 5 outer iterations and move inner work by under 10%.
* ``synth-fit`` draws its population (true coefficients and all rows)
  once from ``population_seed``; the workload seed draws the train/test
  split and the query rows.  Across population seeds 0-7 the fit takes
  7 to 68 outer iterations at 20k training rows, against 67-70 across
  splits of one population.  Seed 3 gives a long fit (about 70 outer
  iterations, as with 50k training rows), so the fit dominates.
"""

WINDOW = {"t0": 10.0, "delta": 2.0, "k": 2, "omega": 6.0}

WORKLOADS = {
    "dblp-years": {
        "kind": "graph",
        "graph": {"n_authors": 500, "n_papers": 1350, "n_venues": 25, "births": "years"},
        "structure_seed": 1,
        "window": WINDOW,
        "aggregator": "stack",
    },
    "dblp-stream": {
        "kind": "graph",
        "graph": {"n_authors": 420, "n_papers": 1150, "n_venues": 20,
                  "births": "continuous"},
        "structure_seed": 1,
        "window": WINDOW,
        "aggregator": "expsmooth",
        "alpha": 0.5,
    },
    "synth-fit": {
        "kind": "synth",
        "synth": {"n": 24000, "n_censored": 6000, "d": 10, "dist": "rayleigh",
                  "train": 17000, "population_seed": 3},
    },
}
