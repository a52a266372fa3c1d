"""The library calls ``perfbench/worker.py`` makes, made the same way here.

The benchmark is kept outside Tier-1's test paths, so this test is what
fails when a library change would break the worker's call surface.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import hazardnet as hz

from conftest import WINDOW

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_worker_names_resolve():
    """Every ``hz.<name>`` the worker reads is a package attribute."""
    names = set(re.findall(r"\bhz\.([A-Za-z_]\w*)", WORKER.read_text(encoding="utf-8")))
    assert {"load_schema", "load_graph_file", "dynamic_series", "fit_parametric"} <= names
    assert sorted(n for n in names if not hasattr(hz, n)) == []


@pytest.mark.parametrize("aggregator", ["stack", "expsmooth"])
def test_worker_calls(fixture_dir, tmp_path, aggregator):
    schema = hz.load_schema(fixture_dir / "schema.json")
    graph = hz.load_graph_file(schema, fixture_dir / "edges.tsv")
    target_expr, exprs = hz.read_metapath_file(fixture_dir / "paths.txt")
    target = hz.parse_metapath(target_expr, schema)
    paths = [hz.parse_metapath(e, schema) for e in exprs]
    window = hz.WindowConfig(t0=WINDOW["t0"], phi=WINDOW["k"] * WINDOW["delta"],
                             omega=WINDOW["omega"], delta=WINDOW["delta"], k=WINDOW["k"])

    cache = hz.PrefixCache()
    cands = hz.candidate_pairs(graph, paths, window, cache)
    labels = hz.label_pairs(graph, target, window, cands, cache)
    series = hz.dynamic_series(graph, paths, window.snapshot_plan(),
                               [rec[0] for rec in labels], cache=cache, threads=1)
    if aggregator == "stack":
        feats = {s.pair: hz.aggregate_stack(s) for s in series}
    else:
        feats = {s.pair: hz.aggregate_expsmooth(s, 0.5) for s in series}
    train = hz.build_dataset(feats, labels, standardize=False)
    assert len(cache) == 0

    csv_path = tmp_path / "dataset.csv"
    hz.save_dataset(csv_path, train)
    loaded = hz.load_dataset(csv_path)
    assert loaded.raw_x is loaded.x
    model = hz.fit(loaded, hz.FitConfig(seed=0))
    assert model.converged

    x = loaded.raw_x
    medians, exceeded = hz.quantile_times(model, x, 0.5)
    assert medians.shape == exceeded.shape == (loaded.n,)
    hz.point_metrics(loaded.t, loaded.y, medians)
    assert 0.0 <= hz.concordance_index(loaded.t, loaded.y, -model.score(x)) <= 1.0
    rng = np.random.default_rng(0)
    for xi in x:
        assert 0.0 <= hz.ranged_probability(model, xi, 0.5, 1.5) <= 1.0
        assert hz.quantile(model, xi, 0.5).time >= 0.0
        assert hz.sample_time(model, xi, rng).time >= 0.0
    w_raw, _ = model.raw_coefficients()
    assert w_raw.shape == (loaded.d,)


def test_worker_synth_split():
    """``synth-fit`` splits a generated dataset into row-subset Datasets."""
    ds = hz.generate(hz.SynthConfig(n_observed=60, n_censored=20, d=3, dist="rayleigh",
                                    seed=3)).dataset
    perm = np.random.default_rng(1).permutation(ds.n)
    parts = [hz.Dataset(x=ds.x[idx], y=ds.y[idx], t=ds.t[idx], pairs=[ds.pairs[i] for i in idx])
             for idx in (np.sort(perm[:50]), np.sort(perm[50:]))]
    model = hz.fit(parts[0], hz.FitConfig(seed=0))
    assert model.converged
    for family in ("exponential", "weibull"):
        hz.fit_parametric(parts[0], family=family)
    assert hz.quantile_times(model, parts[1].raw_x, 0.5)[0].shape == (30,)
