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
import numbers
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import npglm
from .datasets import (
    DatasetError,
    WindowConfig,
    aggregate_expsmooth,
    aggregate_stack,
    build_dataset,
    candidate_pairs,
    check_alpha,
    dynamic_series,
    label_pairs,
    load_dataset,
    save_dataset,
)
from .graph import GraphError, load_graph_file, load_schema, prefixed
from .metapaths import MetaPathError, endpoint_types, parse_metapath, read_metapath_file
from .metrics import evaluate
from .npglm import HazardModel
from .synthetic import DISTRIBUTIONS, SynthConfig, draw_dataset, generate, save_truth

log = logging.getLogger("hazardnet")

MODEL_FAMILIES = {"npglm": "npglm", "expglm": "exponential", "wblglm": "weibull"}


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
    return npglm._fit(dataset, MODEL_FAMILIES[name], npglm.FitConfig(), unit)


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
    if args.aggregator == "expsmooth":
        check_alpha(args.alpha)
    schema = load_schema(args.schema)
    graph = load_graph_file(schema, args.graph)
    target_expr, feature_exprs = read_metapath_file(args.metapaths)
    if args.target:
        target_expr = args.target
    if not target_expr:
        raise MetaPathError("no target relation: pass --target or add a 'target:' line")
    if not feature_exprs:
        raise MetaPathError("the meta-path file lists no feature paths")
    def parse(expr, where):  # an error names the expression and where it came from
        with prefixed(f"{where}: meta-path {expr!r}"):
            return parse_metapath(expr, schema)
    target = parse(target_expr, "--target" if args.target else args.metapaths)
    paths = [parse(expr, args.metapaths) for expr in feature_exprs]
    ends = endpoint_types(paths)
    if (target.source, target.target) != ends:
        raise MetaPathError(f"target {target} joins {target.source}->{target.target}, but "
                            f"the feature paths join {ends[0]}->{ends[1]}")
    window = WindowConfig(t0=args.t0, phi=args.snapshots * args.delta,
                          omega=args.omega, delta=args.delta, k=args.snapshots)
    births = graph.birth_times()
    if len(births) == 0:
        raise GraphError("graph has no links")
    if window.feature_end > float(births[-1]):
        raise DatasetError(f"feature window ends at {window.feature_end}, beyond the last "
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
    dataset = build_dataset(feats, labels)
    save_dataset(args.out, dataset)
    log.info("wrote %d samples x %d features to %s", dataset.n, dataset.d, args.out)
    return 0


def cmd_fit(args) -> int:
    dataset = load_dataset(args.input)
    with prefixed(args.input):
        model = _fit_model(dataset, args.model, unit=args.unit)
    if not model.converged:
        log.warning("fit stopped at the iteration cap without converging")
    model.save(args.out)
    log.info("fit %s on %d samples (d=%d) -> %s", args.model, dataset.n, dataset.d, args.out)
    return 0


def cmd_predict(args) -> int:
    model = HazardModel.load(args.model_file)
    dataset = load_dataset(args.input)
    with prefixed(args.input):
        times, exceeded = npglm.quantile_times(model, dataset.x, 0.5)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "t_pred", "horizon_exceeded"])
        for pair, tp, hx in zip(dataset.pairs, times, exceeded):
            writer.writerow([pair[0], pair[1], repr(float(tp)), int(hx)])
    log.info("wrote %d predictions to %s", len(times), args.out)
    return 0


def _parse_query_x(args) -> np.ndarray:
    raw = args.x
    if raw.startswith("row:"):
        if not args.input:
            raise ValueError("--x row:<i> needs --input pointing at a dataset")
        try:
            index = int(raw[len("row:"):])
        except ValueError:
            raise ValueError(f"--x {raw}: the row index is not an integer") from None
        dataset = load_dataset(args.input)
        if not 0 <= index < dataset.n:
            raise ValueError(f"row {index} outside dataset of {dataset.n} rows")
        x = dataset.x[index]
    else:
        values = raw.split(",")
        x = np.empty(len(values))
        for i, value in enumerate(values):
            try:
                x[i] = float(value)
            except ValueError:
                raise ValueError(f"--x feature x_{i}: {value!r} is not a number") from None
            if not np.isfinite(x[i]):
                raise ValueError(f"--x feature x_{i}: {value!r} is not finite")
    return x


def _op_arguments(op: str, values, names, kind) -> list:
    """The arguments of ``--op``, one per name, each converted by ``kind``
    (float or int); a wrong count or a bad value raises ValueError naming
    the op and, for a bad value, the argument."""
    if len(values) != len(names):
        raise ValueError(f"usage: --op {op} " + " ".join(f"<{name}>" for name in names))
    out = []
    for name, value in zip(names, values):
        try:
            out.append(kind(value))
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ValueError(f"--op {op}: {name} {value!r} is not {what}") from None
    return out


def cmd_query(args) -> int:
    model = HazardModel.load(args.model_file)
    x = _parse_query_x(args)
    # a row of another width than the model's is the fault of both sources
    model_and_row = f"{args.model_file} and {args.input if args.x.startswith('row:') else '--x'}"
    op, rest = args.op[0], args.op[1:]
    if op == "ranged":
        t_a, t_b = _op_arguments(op, rest, ("t_a", "t_b"), float)
        with prefixed(model_and_row):
            probability = npglm.ranged_probability(model, x, t_a, t_b)
        answer = {"op": "ranged", "t_a": t_a, "t_b": t_b, "probability": probability}
    elif op == "quantile":
        alpha, = _op_arguments(op, rest, ("alpha",), float)
        with prefixed(model_and_row):
            est = npglm.quantile(model, x, alpha)
        answer = {"op": "quantile", "alpha": alpha, "time": est.time,
                  "horizon_exceeded": est.horizon_exceeded}
    elif op == "sample":
        count, seed = _op_arguments(op, rest, ("n", "seed"), int)
        if count < 1:
            raise ValueError("sample count must be >= 1")
        # sample_time's draws at once: the same stream, u == 0 redrawn
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=count)
        while not u.all():
            u = np.append(u[u != 0.0], rng.uniform(size=count - np.count_nonzero(u)))
        with prefixed(model_and_row):
            times, exceeded = npglm.quantile_times(model, x, 1.0 - u)
        answer = {"op": "sample", "seed": seed, "times": times.tolist(),
                  "horizon_exceeded": exceeded.tolist()}
    else:
        raise ValueError(f"unknown op {op!r} (expected ranged, quantile, or sample)")
    json.dump(answer, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _read_predictions(path, pairs) -> np.ndarray:
    """The t_pred column.  A value that is not a finite time >= 0, or, when
    the file has src and dst columns, a pair that is not ``pairs`` at the
    same row, raises ValueError naming the file and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "t_pred" not in reader.fieldnames:
            raise ValueError(f"{path} lacks a t_pred column")
        paired = {"src", "dst"} <= set(reader.fieldnames)
        times = []
        for i, row in enumerate(reader):
            if paired and i < len(pairs) and (row["src"], row["dst"]) != tuple(map(str, pairs[i])):
                raise ValueError(f"{path}: line {reader.line_num}: pair "
                                 f"({row['src']}, {row['dst']}) is not truth row {i}'s "
                                 f"pair {tuple(pairs[i])}")
            raw = row["t_pred"]
            try:
                value = float(raw)
            except (TypeError, ValueError):  # TypeError: the row ends before t_pred
                value = float("nan")
            if not 0 <= value < np.inf:  # NaN fails too
                rule = "is not a number" if np.isnan(value) else "is not a finite time >= 0"
                raise ValueError(f"{path}: line {reader.line_num}, column t_pred: "
                                 f"{raw!r} {rule}")
            times.append(value)
    return np.asarray(times)


def cmd_eval(args) -> int:
    truth = load_dataset(args.truth)
    t_pred = _read_predictions(args.pred, truth.pairs)
    with prefixed(f"{args.pred} and {args.truth}"):
        report = evaluate(truth.t, truth.y, t_pred, thresholds=args.thresholds)
    header, values = report.flat_row()
    old = None  # the header of an existing --csv-out; an empty file has none
    if args.csv_out and Path(args.csv_out).exists():
        with open(args.csv_out, "r", encoding="utf-8", newline="") as fh:
            old = next(csv.reader(fh), None)
    if old is not None and old != header:
        raise ValueError(f"{args.csv_out}: header {','.join(old)} differs from this "
                         f"report's header {','.join(header)}; nothing appended")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.csv_out:
        with open(args.csv_out, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if old is None:
                writer.writerow(header)
            writer.writerow([repr(v) for v in values])
    log.info("eval: mae=%.4g ci=%.4g -> %s", report.mae, report.ci, args.out)
    return 0


def _real(value) -> float:
    """A JSON number as a float; true, false and strings are not numbers."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{value!r} is not a number")


def _whole(value) -> int:
    """A JSON number with a whole value, such as 80 or 80.0, as an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not a whole number")


def _cell_draw(n: int, censoring: float, dim: int, dist: str, seed: int = 0) -> SynthConfig:
    """The training draw of an (N, censoring) cell: round(N * censoring) of
    its N rows are censored."""
    n_censored = int(round(n * censoring))
    return SynthConfig(n_observed=n - n_censored, n_censored=n_censored, d=dim, dist=dist,
                       seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: model x N x censoring-ratio grid with repetitions.  The fields
    are the config file's keys; a bad value raises ValueError naming its key."""

    dist: str
    n_grid: tuple
    censoring_grid: tuple
    models: tuple = ("npglm",)
    repetitions: int = 20
    seed: int = 0
    out_dir: str = "sweep-out"
    dim: int = 10
    test_n: int = 0
    save_traces: bool = False

    def __post_init__(self):
        for key, convert in (("models", tuple), ("n_grid", lambda v: tuple(map(_whole, v))),
                             ("censoring_grid", lambda v: tuple(map(_real, v))),
                             ("repetitions", _whole), ("seed", _whole), ("out_dir", os.fspath),
                             ("dim", _whole), ("test_n", _whole)):
            value = getattr(self, key)
            if key in ("models", "n_grid", "censoring_grid") and type(value) not in (list, tuple):
                raise ValueError(f"{key!r} must be a JSON list, got {value!r}")
            try:
                object.__setattr__(self, key, convert(value))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {key!r}: {value!r} ({exc})") from None
        if not isinstance(self.save_traces, bool):
            raise ValueError(f"bad value for 'save_traces': {self.save_traces!r}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.test_n < 0:
            raise ValueError("test_n must be >= 0")
        if not self.models or not self.n_grid or not self.censoring_grid:
            raise ValueError("model, N, and censoring grids must be non-empty")
        if min(self.n_grid) < 1:
            raise ValueError("every N in n_grid must be >= 1")
        bad = [m for m in self.models if m not in MODEL_FAMILIES]
        if bad:
            raise ValueError(f"unknown models in config: {bad}")
        for c in self.censoring_grid:
            if not 0 <= c < 1:
                raise ValueError("censoring ratios must lie in [0, 1)")
        for n in self.n_grid:  # a cell that leaves no row observed fails every repetition
            for c in self.censoring_grid:
                with prefixed(f"cell N={n}, censoring {c}"):
                    _cell_draw(n, c, self.dim, self.dist)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a JSON config; a ValueError it raises names the path."""
        with open(path, "r", encoding="utf-8") as fh, prefixed(path):
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"config is a JSON {type(doc).__name__}, not an object")
            missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
            if missing:
                raise ValueError(f"missing required key {missing[0]!r}")
            return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


def _run_cell(job: dict) -> dict:
    """One (model, N, censoring, repetition) experiment; runs in a worker."""
    out = dict(job)
    try:
        n = job["n"]
        drawn = generate(_cell_draw(n, job["censoring"], job["dim"], job["dist"], job["seed"]))
        start = time.perf_counter()
        model = _fit_model(drawn.dataset, job["model"])
        out["fit_seconds"] = time.perf_counter() - start
        w_hat, _ = model.raw_coefficients()
        out["w_mae"] = float(np.abs(w_hat - drawn.true_w).mean())
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
            times, _ = npglm.quantile_times(model, test.x, 0.5)
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
    if args.repetitions is not None:  # replace() re-runs the config's checks
        config = replace(config, repetitions=args.repetitions)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = list(product(config.models, config.n_grid, config.censoring_grid))
    reps = config.repetitions
    jobs = [{"model": model, "n": n, "censoring": censoring, "rep": rep,
             "dim": config.dim, "dist": config.dist, "seed": config.seed + i * reps + rep,
             "test_n": config.test_n, "save_traces": config.save_traces}
            for i, (model, n, censoring) in enumerate(cells) for rep in range(reps)]

    workers = min(env_threads() or os.cpu_count() or 1, len(jobs))
    log.info("sweep: %d cells on %d workers", len(jobs), workers)
    if workers > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

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
    for i, (model, n, censoring) in enumerate(cells):
        # pool.map keeps job order, so each cell's repetitions are one slice
        good = [r for r in results[i * reps:(i + 1) * reps] if not r["failed"]]
        row = {"model": model, "n": n, "censoring": censoring,
               "repetitions": reps, "failed": reps - len(good)}
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
    p.add_argument("--model", required=True, choices=MODEL_FAMILIES)
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
    except ValueError as exc:  # GraphError, MetaPathError and DatasetError among them
        log.error("%s", exc)
        return 2
    except Exception as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
