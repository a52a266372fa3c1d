"""Command-line driver: synthesize data, extract features from temporal
graphs, fit and query models, evaluate predictions, and run config-driven
experiment sweeps.

Exit codes: 0 success, 1 runtime failure, 2 argument/validation error.
Logs go to standard error; data goes to files (query answers to stdout).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import npglm
from .baselines import fit_parametric
from .datasets import (
    DatasetError,
    WindowConfig,
    aggregate_expsmooth,
    aggregate_stack,
    build_dataset,
    candidate_pairs,
    label_pairs,
    load_dataset,
    save_dataset,
)
from .graph import GraphError, load_graph_file, load_schema
from .metapaths import MetaPathError, dynamic_series, parse_metapath, read_metapath_file
from .metrics import evaluate
from .npglm import HazardModel
from .synthetic import SynthConfig, draw_dataset, generate, save_truth

log = logging.getLogger("hazardnet")

MODEL_NAMES = ("npglm", "expglm", "wblglm")
_PARAMETRIC_FAMILY = {"expglm": "exponential", "wblglm": "weibull"}


def env_threads() -> int | None:
    """Sweep process cap from HAZARDNET_THREADS, if set to a positive integer."""
    raw = os.environ.get("HAZARDNET_THREADS")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        log.warning("ignoring non-integer HAZARDNET_THREADS=%r", raw)
        return None
    return value if value >= 1 else None


def _fit_model(dataset, name: str, unit: str = ""):
    if name == "npglm":
        return npglm.fit(dataset, unit=unit)
    return fit_parametric(dataset, family=_PARAMETRIC_FAMILY[name], unit=unit)


def _predict_medians(model, dataset):
    """Median predicted times plus horizon flags for every dataset row."""
    if dataset.d != model.d:
        raise DatasetError(
            f"model expects {model.d} features, dataset has {dataset.d}"
        )
    return npglm.quantile_times(model, dataset.raw_x, 0.5)


def cmd_synth(args) -> int:
    config = SynthConfig(n_observed=args.n_observed, n_censored=args.n_censored,
                         d=args.dim, dist=args.dist, seed=args.seed)
    out = generate(config, policy=args.censoring)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_dataset(outdir / "dataset.csv", out.dataset)
    save_truth(outdir / "truth.json", out, config)
    log.info("wrote %d rows (%d observed) to %s", out.dataset.n,
             out.dataset.n_observed, outdir)
    return 0


def cmd_features(args) -> int:
    schema = load_schema(args.schema)
    graph = load_graph_file(schema, args.graph)
    target_expr, feature_exprs = read_metapath_file(args.metapaths)
    if args.target:
        target_expr = args.target
    if not target_expr:
        raise MetaPathError(
            "no target relation: pass --target or add a 'target:' line")
    if not feature_exprs:
        raise MetaPathError("the meta-path file lists no feature paths")
    target = parse_metapath(target_expr, schema)
    paths = [parse_metapath(expr, schema) for expr in feature_exprs]
    window = WindowConfig(t0=args.t0, phi=args.snapshots * args.delta,
                          omega=args.omega, delta=args.delta, k=args.snapshots)
    births = graph.birth_times()
    if len(births) == 0:
        raise GraphError("graph has no links")
    if window.feature_end > float(births[-1]):
        raise DatasetError(
            f"feature window ends at {window.feature_end}, beyond the last "
            f"recorded link at {births[-1]}")

    cands = candidate_pairs(graph, paths, window)
    if not cands:
        raise DatasetError("no candidate pairs reachable by the feature paths")
    labels = label_pairs(graph, target, window, cands)
    log.info("labeled %d pairs (%d observed)", len(labels),
             sum(1 for rec in labels if rec[1] == 1))

    series = dynamic_series(graph, paths, window.snapshot_plan(),
                            [rec[0] for rec in labels])
    if args.aggregator == "stack":
        feats = {s.pair: aggregate_stack(s) for s in series}
    else:
        feats = {s.pair: aggregate_expsmooth(s, args.alpha) for s in series}
    dataset = build_dataset(feats, labels, standardize=False)
    save_dataset(args.out, dataset)
    log.info("wrote %d samples x %d features to %s", dataset.n, dataset.d, args.out)
    return 0


def cmd_fit(args) -> int:
    dataset = load_dataset(args.input)
    model = _fit_model(dataset, args.model, unit=args.unit)
    if not model.converged:
        log.warning("fit stopped at the iteration cap without converging")
    model.save(args.out)
    log.info("fit %s on %d samples (d=%d) -> %s", args.model, dataset.n,
             dataset.d, args.out)
    return 0


def cmd_predict(args) -> int:
    model = HazardModel.load(args.model_file)
    dataset = load_dataset(args.input)
    times, exceeded = _predict_medians(model, dataset)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "t_pred", "horizon_exceeded"])
        for pair, tp, hx in zip(dataset.pairs, times, exceeded):
            writer.writerow([pair[0], pair[1], repr(float(tp)), int(hx)])
    log.info("wrote %d predictions to %s", len(times), args.out)
    return 0


def _parse_query_x(args, d: int) -> np.ndarray:
    raw = args.x
    if raw.startswith("row:"):
        if not args.input:
            raise ValueError("--x row:<i> needs --input pointing at a dataset")
        index = int(raw[len("row:"):])
        dataset = load_dataset(args.input)
        if not 0 <= index < dataset.n:
            raise ValueError(f"row {index} outside dataset of {dataset.n} rows")
        x = dataset.raw_x[index]
    else:
        x = np.asarray([float(v) for v in raw.split(",")], dtype=float)
    if len(x) != d:
        raise ValueError(f"model expects {d} features, got {len(x)}")
    return x


def cmd_query(args) -> int:
    model = HazardModel.load(args.model_file)
    x = _parse_query_x(args, model.d)
    op, rest = args.op[0], args.op[1:]
    if op == "ranged":
        if len(rest) != 2:
            raise ValueError("usage: --op ranged <t_a> <t_b>")
        t_a, t_b = float(rest[0]), float(rest[1])
        answer = {"op": "ranged", "t_a": t_a, "t_b": t_b,
                  "probability": npglm.ranged_probability(model, x, t_a, t_b)}
    elif op == "quantile":
        if len(rest) != 1:
            raise ValueError("usage: --op quantile <alpha>")
        alpha = float(rest[0])
        est = npglm.quantile(model, x, alpha)
        answer = {"op": "quantile", "alpha": alpha, "time": est.time,
                  "horizon_exceeded": est.horizon_exceeded}
    elif op == "sample":
        if len(rest) != 2:
            raise ValueError("usage: --op sample <n> <seed>")
        count, seed = int(rest[0]), int(rest[1])
        if count < 1:
            raise ValueError("sample count must be >= 1")
        rng = np.random.default_rng(seed)
        draws = [npglm.sample_time(model, x, rng) for _ in range(count)]
        answer = {"op": "sample", "seed": seed,
                  "times": [e.time for e in draws],
                  "horizon_exceeded": [e.horizon_exceeded for e in draws]}
    else:
        raise ValueError(f"unknown op {op!r} (expected ranged, quantile, or sample)")
    json.dump(answer, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "t_pred" not in reader.fieldnames:
            raise ValueError(f"{path} lacks a t_pred column")
        times, flags = [], []
        for row in reader:
            times.append(float(row["t_pred"]))
            flags.append(int(row.get("horizon_exceeded", 0) or 0))
    return np.asarray(times), np.asarray(flags)


def cmd_eval(args) -> int:
    truth = load_dataset(args.truth)
    t_pred, _ = _read_predictions(args.pred)
    if len(t_pred) != truth.n:
        raise ValueError(
            f"{len(t_pred)} predictions for {truth.n} truth rows")
    report = evaluate(truth.t, truth.y, t_pred, thresholds=args.thresholds)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.csv_out:
        header, values = report.flat_row()
        new = not Path(args.csv_out).exists()
        with open(args.csv_out, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(header)
            writer.writerow([repr(v) for v in values])
    log.info("eval: mae=%.4g ci=%.4g -> %s", report.mae, report.ci, args.out)
    return 0


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: model x N x censoring-ratio grid with repetitions."""

    dist: str
    models: tuple
    n_grid: tuple
    censoring_grid: tuple
    repetitions: int
    seed: int
    out_dir: str
    dim: int = 10
    test_n: int = 0
    save_traces: bool = False

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.models or not self.n_grid or not self.censoring_grid:
            raise ValueError("model, N, and censoring grids must be non-empty")
        bad = [m for m in self.models if m not in MODEL_NAMES]
        if bad:
            raise ValueError(f"unknown models in config: {bad}")
        for c in self.censoring_grid:
            if not 0 <= c < 1:
                raise ValueError("censoring ratios must lie in [0, 1)")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            dist=doc["dist"],
            models=tuple(doc.get("models", ["npglm"])),
            n_grid=tuple(int(n) for n in doc["n_grid"]),
            censoring_grid=tuple(float(c) for c in doc["censoring_grid"]),
            repetitions=int(doc.get("repetitions", 20)),
            seed=int(doc.get("seed", 0)),
            out_dir=doc.get("out_dir", "sweep-out"),
            dim=int(doc.get("dim", 10)),
            test_n=int(doc.get("test_n", 0)),
            save_traces=bool(doc.get("save_traces", False)),
        )


def _run_cell(job: dict) -> dict:
    """One (model, N, censoring, repetition) experiment; runs in a worker."""
    out = dict(job)
    try:
        n = job["n"]
        n_censored = int(round(n * job["censoring"]))
        n_observed = n - n_censored
        config = SynthConfig(n_observed=n_observed, n_censored=n_censored,
                             d=job["dim"], dist=job["dist"], seed=job["seed"])
        drawn = generate(config)
        start = time.perf_counter()
        model = _fit_model(drawn.dataset, job["model"])
        out["fit_seconds"] = time.perf_counter() - start
        w_hat, _ = model.raw_coefficients()
        out["w_mae"] = float(np.abs(w_hat - drawn.true_w).mean())
        if model.loss_trace:  # only the NP-GLM fit records one
            out["iterations"] = len(model.loss_trace)
            out["final_loss"] = model.loss_trace[-1]
            out["converged"] = int(model.converged)
            if job["save_traces"]:
                out["loss_trace"] = list(model.loss_trace)
                # per-sample average log-likelihood, the usual convergence plot
                out["avg_log_likelihood"] = [-v / n for v in model.loss_trace]
        if job["test_n"]:
            test_cfg = SynthConfig(n_observed=job["test_n"], n_censored=0,
                                   d=job["dim"], dist=job["dist"],
                                   seed=job["seed"] + 1_000_003)
            test = draw_dataset(np.random.default_rng(test_cfg.seed), test_cfg,
                                drawn.true_w, drawn.true_b)
            times, _ = _predict_medians(model, test)
            report = evaluate(test.t, test.y, times)
            out["test_mae"] = report.mae
            out["test_ci"] = report.ci
        out["failed"] = 0
    except Exception as exc:  # cell failures must not kill the sweep
        out["failed"] = 1
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


_AGG_FIELDS = ("w_mae", "fit_seconds", "iterations", "final_loss",
               "test_mae", "test_ci")


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.repetitions is not None:
        if args.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        config = replace(config, repetitions=args.repetitions)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = []
    counter = 0
    for model in config.models:
        for n in config.n_grid:
            for censoring in config.censoring_grid:
                for rep in range(config.repetitions):
                    jobs.append({
                        "model": model, "n": n, "censoring": censoring,
                        "rep": rep, "dim": config.dim, "dist": config.dist,
                        "seed": config.seed + counter, "test_n": config.test_n,
                        "save_traces": config.save_traces,
                    })
                    counter += 1

    workers = min(env_threads() or os.cpu_count() or 1, len(jobs))
    log.info("sweep: %d cells on %d workers", len(jobs), workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]

    if config.save_traces:
        keys = ("model", "n", "censoring", "rep", "loss_trace", "avg_log_likelihood")
        traces = [
            {k: r[k] for k in keys if k in r}
            for r in results if "loss_trace" in r
        ]
        with open(out_dir / "traces.json", "w", encoding="utf-8") as fh:
            json.dump(traces, fh)

    failures = [r for r in results if r["failed"]]
    for r in failures:
        log.warning("cell failed (%s N=%d c=%.2f rep=%d): %s", r["model"],
                    r["n"], r["censoring"], r["rep"], r["error"])

    rows = []
    for model in config.models:
        for n in config.n_grid:
            for censoring in config.censoring_grid:
                cell = [r for r in results
                        if (r["model"], r["n"], r["censoring"]) == (model, n, censoring)]
                good = [r for r in cell if not r["failed"]]
                row = {"model": model, "n": n, "censoring": censoring,
                       "repetitions": len(cell), "failed": len(cell) - len(good)}
                for name in _AGG_FIELDS:
                    values = [r[name] for r in good if name in r]
                    if values:
                        row[f"{name}_mean"] = float(np.mean(values))
                        row[f"{name}_std"] = float(np.std(values))
                rows.append(row)

    header = ["model", "n", "censoring", "repetitions", "failed"]
    for name in _AGG_FIELDS:
        for suffix in ("mean", "std"):
            col = f"{name}_{suffix}"
            if any(col in row for row in rows):
                header.append(col)
    out_path = out_dir / "results.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(col, "") for col in header])
    log.info("wrote %d aggregate rows to %s", len(rows), out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazardnet",
        description="Predict when links form in temporal heterogeneous networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic survival dataset")
    p.add_argument("--dist", required=True, choices=("rayleigh", "gompertz"))
    p.add_argument("--n-observed", type=int, required=True)
    p.add_argument("--n-censored", type=int, default=0)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--censoring", choices=("tail", "random"), default="tail")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract windowed meta-path features")
    p.add_argument("--graph", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--metapaths", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--snapshots", type=int, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--aggregator", choices=("stack", "expsmooth"), default="stack")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("fit", help="fit a model to a dataset CSV")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unit", default="")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="median predicted times for a dataset")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("query", help="probability/quantile/sampling queries")
    p.add_argument("--model-file", required=True)
    p.add_argument("--x", required=True,
                   help="comma-separated features, or row:<i> with --input")
    p.add_argument("--input", default=None)
    p.add_argument("--op", nargs="+", required=True,
                   help="ranged <a> <b> | quantile <alpha> | sample <n> <seed>")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score predictions against a dataset")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--thresholds", type=float, nargs="*", default=())
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a config-driven experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--repetitions", type=int, default=None,
                   help="override the config's repetition count")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, MetaPathError, DatasetError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
