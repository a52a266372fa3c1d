"""Pipeline benchmark for hazardnet.

    python3 perfbench/run.py --workload dblp-years --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), then runs the
pipeline ``features -> CSV round trip -> fit -> score -> queries`` in
fresh worker processes, one after another, until ``--seconds`` have
passed (at least three passes).  A first, untimed pass warms the machine
up and checks the outputs against brute-force references; any failed
check makes the run exit 1.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end figures of the timed passes, each the mean without the lowest
and highest pass, except ``query_p50_us``, the lowest per-block median
(see ``fastest_block_p50``); with ``--trace 1`` passes alternate
between untraced and traced, and the metrics are the per-layer figures of
the traced passes plus the tracing overhead.  Spans of traced passes are
written to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from dblpgen import GraphSpec, write_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2

LAYER_SPANS = (
    "graph.load", "metapaths.series",
    "datasets.candidates", "datasets.label", "datasets.aggregate", "datasets.build",
    "datasets.save", "datasets.load",
    "npglm.fit", "npglm.predict",
    "baselines.exp_fit", "baselines.wbl_fit",
    "synthetic.generate",
    "metrics.point", "metrics.concordance",
)
COUNTS = (
    "graph.links", "graph.change_points", "metapaths.cache_entries",
    "datasets.candidates", "datasets.labeled", "datasets.observed", "datasets.observed_ratio",
    "npglm.w_mae",
)


class BenchError(RuntimeError):
    """A pass could not produce a result."""


def run_pass(args, workdir: Path, index: int, traced: bool, checks: bool,
             deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--input-dir", str(workdir), "--run-id", str(index),
        "--traced", str(int(traced)), "--checks", str(int(checks)),
    ]
    if traced:
        cmd += ["--spans-out", str(output_path(args, "spans", "jsonl"))]
    # One BLAS thread: with two, fit and scoring times switch between regimes
    # 2.5x apart with the load on the second vCPU of this 2-vCPU host.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout,
                              cwd=str(ROOT))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise BenchError(f"pass {index} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def center(values) -> float:
    """Mean of the values without the lowest and the highest one.

    Each pass is a fresh process, and passes fall into fast and slow modes
    (up to 1.6x apart for query latency) at random; the trimmed mean tracks
    the mix of modes more steadily than the median, which jumps between them.
    """
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def fastest_block_p50(passes: list[dict]) -> float:
    """Lowest median latency of any query block of the passes.

    Contention from other tenants of the host only adds time, and it comes
    and goes within a pass: the block medians of one pass spread up to 2x,
    and the share of slow blocks changes from run to run.  The fastest
    block is the latency the code gets on an uncontended host; it moves with
    the code and hardly with the host's load.  The median of a block of
    1,200 queries has little sampling noise, so the minimum is not luck; a
    minimum of block p99s would be, so the p99 stays a trimmed mean.
    """
    return min(b for p in passes for b in p["latency_us"]["block_p50"])


def end_to_end(passes: list[dict], ci: float) -> dict:
    stage = lambda name: center(p["stage"][name] for p in passes)  # noqa: E731
    return {
        "setup_s": stage("setup"),
        "features_s": stage("features"),
        "fit_s": stage("fit"),
        "score_s": stage("score"),
        "total_s": stage("total"),
        "peak_rss_mb": center(p["peak_rss_mb"] for p in passes),
        "query_p50_us": fastest_block_p50(passes),
        "query_p99_us": center(p["latency_us"]["p99"] for p in passes),
        "ci": ci,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = center(p["self"].get(name, 0.0) for p in traced)
        out[f"{name}.rss_mb"] = center(p["rss"].get(name, 0.0) for p in traced)
    counts = traced[0]["counts"]
    out.update({name: float(counts.get(name, 0)) for name in COUNTS})
    fit = traced[0]["fit"]
    out.update({
        "npglm.outer_iters": fit["outer_iters"],
        "npglm.s_per_iter": out["npglm.fit_s"] / fit["outer_iters"],
        "npglm.converged": fit["converged"],
        "npglm.ties": fit["ties"],
        "npglm.knots": fit["knots"],
        "npglm.horizon_exceeded_frac": fit["horizon_exceeded_frac"],
    })
    for op in ("ranged", "quantile", "sample"):
        out[f"npglm.{op}_us"] = center(p["latency_us"][op] for p in traced)
    traced_total = center(p["stage"]["total"] for p in traced)
    out["trace.total_s"] = traced_total
    out["trace.self_sum_s"] = center(p["total_self_sum"] for p in traced)
    out["trace.overhead_s"] = traced_total - center(p["stage"]["total"] for p in untraced)
    return out


def output_path(args, kind: str, suffix: str) -> Path:
    out_dir = ROOT / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / f"{kind}-{args.workload}-seed{args.seed}-trace{args.trace}.{suffix}"


def metric_units(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hazardnet pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hazardnet" / "__init__.py").is_file():
        print(f"error: no hazardnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    output_path(args, "spans", "jsonl").unlink(missing_ok=True)
    spec = WORKLOADS[args.workload]
    base = ROOT / ".perfbench-work"
    workdir = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        if spec["kind"] == "graph":
            write_graph(GraphSpec(seed=spec["structure_seed"], **spec["graph"]), workdir,
                        relabel_seed=args.seed)
        # Pass 0 runs the output checks and warms the machine up (the first
        # process after idle runs slower); it counts toward attempted/failed
        # but not toward the timings.
        warmup = run_pass(args, workdir, 0, traced=False, checks=True, deadline=deadline)
        untraced: list[dict] = []
        traced: list[dict] = []
        walls: list[float] = []
        measure_start = time.monotonic()
        while warmup.get("correct"):
            want_traced = bool(args.trace) and len(traced) <= len(untraced)
            if args.trace:
                enough = min(len(traced), len(untraced)) >= MIN_TRACE_PAIRS
            else:
                enough = len(untraced) >= MIN_PASSES
            elapsed = time.monotonic() - measure_start
            if enough and elapsed + min(walls) > args.seconds:
                break
            t0 = time.monotonic()
            result = run_pass(args, workdir, len(walls) + 1, traced=want_traced, checks=False,
                              deadline=deadline)
            walls.append(time.monotonic() - t0)
            (traced if want_traced else untraced).append(result)
            if not result.get("correct"):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    everything = [warmup] + untraced + traced
    output_path(args, "passes", "json").write_text(json.dumps(everything, indent=1))
    correct = all(r.get("correct") for r in everything)
    metrics = {}
    if correct:
        table = (per_layer(traced, untraced) if args.trace
                 else end_to_end(untraced, warmup["ci"]))
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if set(table) != set(units):
            print(f"error: metrics {sorted(set(table) ^ set(units))} differ from "
                  "BENCHMARK.json", file=sys.stderr)
            return 2
        metrics = {k: {"value": v, "unit": units[k]} for k, v in table.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
