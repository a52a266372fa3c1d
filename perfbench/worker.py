"""One pass of the pipeline in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line.
The pass times set-up (importing ``hazardnet`` and loading the input),
then ``features -> CSV round trip -> fit -> score -> queries`` through
the library's public functions, the way ``hazardnet.cli`` chains them.
Stage spans are always recorded, since they are the end-to-end numbers;
with ``--traced 1`` every call into a layer gets its own span and the
high-water RSS after it.  With ``--checks 1`` the pass also checks its
outputs against the brute-force references in ``oracles.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from dblpgen import read_edges
from spans import Recorder, self_times, subtree
from workloads import WORKLOADS

N_QUERIES = 18000
QUERY_BLOCK = 400  # queries of each kind per latency block
N_CHECK_PAIRS = 200
N_CHECK_OBSERVED = 50
N_CHECK_CONCORDANCE = 2000
ROUNDTRIP_ALPHAS = (0.001, 0.01, 0.1, 0.5)
W_MAE_LIMIT = 0.05
STAGES = ("setup", "total", "features", "roundtrip", "fit", "baselines", "score", "queries")


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_hazardnet(root: Path):
    """Import the library from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "hazardnet" / "__init__.py").is_file():
        raise ImportError(f"no hazardnet package under {src}")
    sys.path.insert(0, str(src))
    import hazardnet

    if Path(hazardnet.__file__).resolve().parent != (src / "hazardnet").resolve():
        raise ImportError(f"hazardnet resolved to {hazardnet.__file__}, not {src}")
    return hazardnet


class Pass:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.rec = Recorder(run_id=args.run_id)
        self.traced = bool(args.traced)
        self.rss: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {"ranged": [], "quantile": [], "sample": []}
        self.peak_rss = float("nan")
        self.ci = None

    def op(self, name: str, fn, *a, **kw):
        """One call into a layer: counted, and spanned when traced."""
        self.attempted += 1
        ctx = self.rec.span(name) if self.traced else nullcontext()
        with ctx:
            out = fn(*a, **kw)
        if self.traced:
            self.rss[name] = peak_rss_mb()
        return out

    # -- set-up ---------------------------------------------------------

    def setup(self):
        root = Path(self.args.root)
        with self.rec.span("setup"):
            self.hz = import_hazardnet(root)
            if self.spec["kind"] == "graph":
                self.setup_graph(Path(self.args.input_dir))
            else:
                self.setup_synth()

    def setup_graph(self, indir: Path):
        hz = self.hz

        def load():
            schema = hz.load_schema(indir / "schema.json")
            return schema, hz.load_graph_file(schema, indir / "edges.tsv")

        self.schema, self.graph = self.op("graph.load", load)
        target_expr, exprs = hz.read_metapath_file(indir / "paths.txt")
        self.target = hz.parse_metapath(target_expr, self.schema)
        self.paths = [hz.parse_metapath(e, self.schema) for e in exprs]
        w = self.spec["window"]
        self.window = hz.WindowConfig(t0=w["t0"], phi=w["k"] * w["delta"], omega=w["omega"],
                                      delta=w["delta"], k=w["k"])

    def setup_synth(self):
        hz = self.hz
        s = self.spec["synth"]
        config = hz.SynthConfig(n_observed=s["n"] - s["n_censored"], n_censored=s["n_censored"],
                                d=s["d"], dist=s["dist"], seed=s["population_seed"])
        self.synth = self.op("synthetic.generate", hz.generate, config)

    # -- timed pipeline -------------------------------------------------

    def run(self):
        with self.rec.span("total"):
            with self.rec.span("features"):
                if self.spec["kind"] == "graph":
                    self.features_graph()
                else:
                    self.features_synth()
            with self.rec.span("roundtrip"):
                csv_path = Path(self.args.input_dir) / f"dataset-{self.args.run_id}.csv"
                self.op("datasets.save", self.hz.save_dataset, csv_path, self.train)
                self.train = None  # as in the CLI, only the file outlives `features`
                self.loaded = self.op("datasets.load", self.hz.load_dataset, csv_path)
            with self.rec.span("fit"):
                self.model = self.op("npglm.fit", self.hz.fit, self.loaded,
                                     self.hz.FitConfig(seed=0))
                if not self.model.converged:
                    self.failed += 1
            if self.spec["kind"] == "synth":
                with self.rec.span("baselines"):
                    self.op("baselines.exp_fit", self.hz.fit_parametric, self.loaded,
                            family="exponential")
                    self.op("baselines.wbl_fit", self.hz.fit_parametric, self.loaded,
                            family="weibull")
            with self.rec.span("score"):
                self.score()
            with self.rec.span("queries"):
                self.queries()
        self.peak_rss = peak_rss_mb()
        if self.spec["kind"] == "graph":
            self.graph_counts()

    def features_graph(self):
        hz = self.hz
        cache = hz.PrefixCache()
        cands = self.op("datasets.candidates", hz.candidate_pairs, self.graph, self.paths,
                        self.window, cache)
        labels = self.op("datasets.label", hz.label_pairs, self.graph, self.target,
                         self.window, cands, cache)
        series = self.op("metapaths.series", hz.dynamic_series, self.graph, self.paths,
                         self.window.snapshot_plan(), [rec[0] for rec in labels],
                         cache=cache, threads=1)
        if self.spec["aggregator"] == "stack":
            feats = self.op("datasets.aggregate",
                            lambda: {s.pair: hz.aggregate_stack(s) for s in series})
        else:
            alpha = self.spec["alpha"]
            feats = self.op("datasets.aggregate",
                            lambda: {s.pair: hz.aggregate_expsmooth(s, alpha) for s in series})
        self.train = self.op("datasets.build", hz.build_dataset, feats, labels,
                             standardize=False)
        # Only sizes are kept: holding the cache or labels would raise later peak RSS.
        self.counts.update({
            "metapaths.cache_entries": len(cache),
            "datasets.candidates": len(cands),
            "datasets.labeled": len(labels),
        })

    def graph_counts(self):
        step_types = sorted({name for name, _ in self.target.steps})
        births = self.graph.birth_times(step_types)
        w = self.window
        observed = self.loaded.n_observed
        self.counts.update({
            "graph.links": self.graph.link_count,
            "graph.change_points": int(((births > w.feature_end)
                                        & (births <= w.observation_end)).sum()),
            "datasets.observed": observed,
            "datasets.observed_ratio": observed / self.counts["datasets.candidates"],
        })

    def features_synth(self):
        hz, np = self.hz, self.np
        ds = self.synth.dataset
        train_n = self.spec["synth"]["train"]
        perm = np.random.default_rng(self.args.seed).permutation(ds.n)

        def split():
            parts = []
            for idx in (np.sort(perm[:train_n]), np.sort(perm[train_n:])):
                parts.append(hz.Dataset(x=ds.x[idx], y=ds.y[idx], t=ds.t[idx],
                                        pairs=[ds.pairs[i] for i in idx]))
            return parts

        self.train, self.test = self.op("datasets.build", split)

    def score(self):
        hz = self.hz
        self.scored = self.loaded if self.spec["kind"] == "graph" else self.test
        ds = self.scored
        self.medians, self.exceeded = self.op("npglm.predict", hz.quantile_times,
                                              self.model, ds.raw_x, 0.5)
        self.op("metrics.point", hz.point_metrics, ds.t, ds.y, self.medians)
        self.op("metrics.concordance", hz.concordance_index, ds.t, ds.y, self.medians)

    def queries(self):
        hz, np = self.hz, self.np
        rng = np.random.default_rng(self.args.seed + 1)
        x = self.scored.raw_x
        rows = rng.integers(0, len(x), size=N_QUERIES)
        draw_rng = np.random.default_rng(self.args.seed + 2)
        calls = (
            ("ranged", "npglm.ranged", lambda xi: hz.ranged_probability(self.model, xi, 0.5, 1.5)),
            ("quantile", "npglm.quantile", lambda xi: hz.quantile(self.model, xi, 0.5)),
            ("sample", "npglm.sample", lambda xi: hz.sample_time(self.model, xi, draw_rng)),
        )
        clock = time.perf_counter
        for i, row in enumerate(rows):
            key, name, call = calls[i % 3]
            xi = x[row]
            self.attempted += 1
            with self.rec.span(name) if self.traced else nullcontext():
                start = clock()
                call(xi)
                self.latency[key].append(clock() - start)

    # -- output checks --------------------------------------------------

    def check_cheap(self):
        np = self.np
        trace = np.asarray(self.model.loss_trace)
        slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        if not np.all(np.diff(trace) <= slack):
            raise CheckFailed("(d) npglm loss trace increases")
        self.check_roundtrip()
        if self.spec["kind"] == "synth":
            w_hat, _ = self.model.raw_coefficients()
            w_mae = float(np.abs(w_hat - self.synth.true_w).mean())
            self.counts["npglm.w_mae"] = w_mae
            if not w_mae <= W_MAE_LIMIT:
                raise CheckFailed(f"(f) w_mae {w_mae:.4g} > {W_MAE_LIMIT}")

    def check_roundtrip(self):
        """(e) ranged_probability(0, quantile(alpha)) returns alpha."""
        hz, np = self.hz, self.np
        rng = np.random.default_rng(self.args.seed + 3)
        x = self.scored.raw_x[rng.choice(len(self.scored.t), size=200, replace=False)]
        checked = 0
        for alpha in ROUNDTRIP_ALPHAS:
            times, exceeded = hz.quantile_times(self.model, x, alpha)
            for xi, q, hit in zip(x, times, exceeded):
                if hit:
                    continue
                p = hz.ranged_probability(self.model, xi, 0.0, float(q))
                if abs(p - alpha) > 1e-9:
                    raise CheckFailed(f"(e) P(T <= quantile({alpha})) = {p!r}")
                checked += 1
        self.counts["checks.roundtrip_rows"] = checked

    def check_full(self):
        """(a)-(c) against brute force, plus the score-based C index."""
        # Imported here, not at the top: numpy must load inside the timed set-up.
        import oracles

        np = self.np
        ds = self.scored
        self.ci = self.hz.concordance_index(ds.t, ds.y, -self.model.score(ds.raw_x))
        rng = np.random.default_rng(self.args.seed + 4)
        sub = rng.choice(ds.n, size=min(N_CHECK_CONCORDANCE, ds.n), replace=False)
        for pred in (self.medians, -self.model.score(ds.raw_x)):
            got = self.hz.concordance_index(ds.t[sub], ds.y[sub], pred[sub])
            want = oracles.concordance_pairs(ds.t[sub], ds.y[sub], pred[sub])
            if got != want:
                raise CheckFailed(f"(c) concordance {got!r} != pair enumeration {want!r}")
        if self.spec["kind"] == "graph":
            self.check_graph_rows(oracles)

    def check_graph_rows(self, oracles):
        """(a) window-end features and (b) labels of seeded rows."""
        np = self.np
        ds = self.loaded
        with open(Path(self.args.input_dir) / "edges.tsv", encoding="utf-8") as fh:
            edges = read_edges(fh)
        author_id = {i: a for a, i in oracles.node_indices(edges)["A"].items()}
        rng = np.random.default_rng(self.args.seed + 5)
        obs = np.flatnonzero(ds.y == 1)
        cen = np.flatnonzero(ds.y == 0)
        n_obs = min(N_CHECK_OBSERVED, len(obs))
        rows = np.concatenate([rng.choice(obs, size=n_obs, replace=False),
                               rng.choice(cen, size=min(N_CHECK_PAIRS - n_obs, len(cen)),
                                          replace=False)])
        w = self.window
        taus = [w.t0 + w.delta * i for i in range(w.k + 1)]
        counters = [oracles.WalkCounter(edges, tau) for tau in taus]
        steps = [oracles.parse_steps(p.expr) for p in self.paths]
        first = oracles.first_coauthorship(edges)
        for r in rows:
            a, b = (author_id[int(v)] for v in ds.pairs[r])
            for j, st in enumerate(steps):
                bounds = [c.count(a, b, st) for c in counters]
                if self.spec["aggregator"] == "stack":
                    want = float(bounds[-1])
                else:
                    want = oracles.expsmooth(bounds, self.spec["alpha"])
                if ds.x[r, j] != want:
                    raise CheckFailed(f"(a) row {r} ({a},{b}) path {j}: "
                                      f"{ds.x[r, j]!r} != {want!r}")
            label = oracles.expected_label(first.get(frozenset((a, b))), w.feature_end, w.omega)
            if label is None or (int(ds.y[r]), float(ds.t[r])) != label:
                raise CheckFailed(f"(b) row {r} ({a},{b}): (y, t) = "
                                  f"({ds.y[r]}, {ds.t[r]!r}), expected {label}")
        self.counts["checks.oracle_rows"] = len(rows)

    # -- result ---------------------------------------------------------

    def result(self) -> dict:
        np = self.np
        spans = self.rec.spans
        own = self_times(spans)
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "stage": {s.name: s.duration for s in spans if s.name in STAGES},
            "peak_rss_mb": self.peak_rss,
            "ci": self.ci,
            "counts": self.counts,
            "latency_us": self.latency_percentiles(),
        }
        if self.traced:
            layer_self: dict[str, float] = {}
            for s, t in zip(spans, own):
                layer_self[s.name] = layer_self.get(s.name, 0.0) + t
            total_index = next(i for i, s in enumerate(spans) if s.name == "total")
            out["self"] = layer_self
            out["total_self_sum"] = sum(own[i] for i in subtree(spans, total_index))
            out["rss"] = self.rss
            out["fit"] = {
                "outer_iters": len(self.model.loss_trace),
                "converged": int(self.model.converged),
                "knots": len(self.model.event_times),
                "ties": self.observed_ties(),
                "horizon_exceeded_frac": float(np.mean(self.exceeded)),
            }
        return out

    def latency_percentiles(self) -> dict:
        """Latencies of the pass in us: p99 over all queries, p50 per
        operation, and the p50 of each block of consecutive queries."""
        np = self.np
        per_op = np.array(list(self.latency.values())) * 1e6  # kinds x queries of each
        out = {op: float(np.median(v)) for op, v in zip(self.latency, per_op)}
        out["p99"] = float(np.percentile(per_op, 99))
        n_blocks = per_op.shape[1] // QUERY_BLOCK
        blocks = (per_op[:, :n_blocks * QUERY_BLOCK]
                  .reshape(len(per_op), n_blocks, QUERY_BLOCK)
                  .transpose(1, 0, 2).reshape(n_blocks, -1))
        out["block_p50"] = np.median(blocks, axis=1).tolist()
        return out

    def observed_ties(self) -> int:
        """Observed rows whose time equals another observed row's time."""
        np = self.np
        t_obs = self.loaded.t[self.loaded.y == 1]
        _, inverse, counts = np.unique(t_obs, return_inverse=True, return_counts=True)
        return int((counts[inverse] > 1).sum())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input-dir", required=True)
    p.add_argument("--run-id", type=int, default=0)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--checks", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    job = Pass(args)
    try:
        job.setup()
        import numpy

        job.np = numpy
        job.run()
    except ImportError:
        traceback.print_exc()
        return 2
    except Exception:
        traceback.print_exc()
        job.failed += 1
        print(json.dumps({"attempted": job.attempted, "failed": job.failed, "correct": False}))
        return 1
    correct = True
    try:
        job.check_cheap()
        if args.checks:
            job.check_full()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    out = job.result()
    out["correct"] = correct
    if args.spans_out and job.traced:
        job.rec.write(args.spans_out)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
