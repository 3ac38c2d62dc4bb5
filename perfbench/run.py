"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload extract_web --seed 1 --seconds 15 --trace 0

Run from the repository root. The run writes its seeded inputs under
``.perfbench_work/``, starts a local Ray session pinned to 4 logical CPUs,
measures, checks every output, stops every process it started and prints
each metric with its unit. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Untraced (``--trace 0``): set up ``SETUP_SESSIONS`` times (Ray start plus
one warm pass; the median is ``setup_s``), run the in-process kernel
section, then repeat the timed pass for ``--seconds`` (at least the
workload's ``MIN_PASSES`` times) and report medians. Traced (``--trace 1``): one set-up, one untraced pass, then
one traced pass and every layer measurement under spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SESSIONS = 2
# counted from the end of input generation: every job is cut before this,
# so a run with a hang still ends in time (a traced run takes up to ~110 s)
RUN_DEADLINE_S = 150.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size relative to the defined workload (tests)")
    return p.parse_args(argv)


def declared_metrics(key: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def unit_of(name: str) -> str:
    for suffix, unit in (("_frac", "fraction"), ("docs_per_s", "docs/s"), ("pages_per_s", "pages/s"),
                         ("mb_per_s", "MB/s"), ("ray_efficiency", "ratio"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def pool_size() -> int:
    """Actors ``run_extraction`` starts: its default, clamped to CPUs - 1."""
    from ai_pdf_extraction_ray.pipelines.extract_pipeline import DEFAULT_CONCURRENCY

    from perfbench.cluster import NUM_CPUS

    return max(1, min(DEFAULT_CONCURRENCY, NUM_CPUS - 1))


def efficiency(wl, pipeline_docs_per_s: float, kernels: dict[str, float]) -> float:  # noqa: ANN001
    """Pipeline docs/s over what the pool's actors do in-process."""
    from perfbench.kernels import EXTRACTOR

    base = pool_size() * kernels[f"{EXTRACTOR}.docs_per_s"]
    return pipeline_docs_per_s / base if wl.EXTRACTS and base else 0.0


def untraced(wl, seconds: float, setups: list[float], kernels: dict[str, float]):  # noqa: ANN001, ANN201
    """Passes until ``seconds`` have passed (at least ``wl.MIN_PASSES``,
    and no more after a job timed out); medians."""
    from perfbench.cluster import RssSampler, cpu_ticks
    from perfbench.trace import Tracer

    off = Tracer("untraced", enabled=False)
    walls: list[float] = []
    steal0, all0 = cpu_ticks()
    with RssSampler() as rss:
        end = time.perf_counter() + seconds
        while not walls or (not wl.timed_out and (
                len(walls) < wl.MIN_PASSES or time.perf_counter() < end)):
            walls.append(wl.timed_pass(str(len(walls)), off))
    steal1, all1 = cpu_ticks()
    wl.verify()
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    wall = wl.wall(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "docs_per_s": wl.units_per_pass / wall,
        "payload_mb_per_s": wl.payload_bytes / 1e6 / wall,
        "peak_rss_mb": rss.peak / 1e6,
    }
    extra = {"passes": len(walls),
             # CPU time the hypervisor gave to other guests during the
             # passes: where it is high, walls read high
             "cluster.cpu_steal_frac": (steal1 - steal0) / max(1, all1 - all0),
             "pipelines.extract_pipeline.ray_efficiency":
                 efficiency(wl, wl.units_per_pass / wall, kernels)}
    for q, q_walls in getattr(wl, "query_walls", {}).items():
        extra[f"pipelines.queries.{q}.wall_s"] = min(q_walls)
    return metrics, extra


def traced(wl, run_id: str, kernel_fn) -> tuple[dict[str, float], Tracer]:  # noqa: ANN001
    """One untraced pass, then one traced pass and every layer under spans."""
    from perfbench.cluster import NUM_CPUS
    from perfbench.trace import Tracer, self_times
    from perfbench.workloads import operator_stats

    wl.prepare_resume()
    untraced_wall = wl.timed_pass("untraced", Tracer(run_id, enabled=False))
    tracer = Tracer(run_id, enabled=True)
    with tracer.span("perfbench.run"):
        traced_wall = wl.timed_pass("traced", tracer)
        kernels = kernel_fn(tracer)
        with tracer.span("state.manifest.resume"):
            resume_s, skipped, shards = wl.resume()
        layers = wl.layer_extras(tracer)
    wl.verify()

    layers.update(kernels)
    docs_per_s = wl.units_per_pass / untraced_wall if wl.EXTRACTS else 0.0
    layers.update({
        "cluster.num_cpus": float(NUM_CPUS),
        "pipelines.extract_pipeline.pool_size": float(pool_size()),
        "pipelines.extract_pipeline.docs_per_s": docs_per_s,
        "pipelines.extract_pipeline.ray_efficiency": efficiency(wl, docs_per_s, kernels),
        "state.manifest.resume_s_per_shard": resume_s / shards if shards else 0.0,
        "state.manifest.skipped_shards": float(skipped),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": float(len(tracer.spans)),
    })
    if getattr(wl, "last_stats", ""):
        for role, stats in operator_stats(wl.last_stats).items():
            layers[f"ray_data.{role}.wall_s"] = stats["wall_s"]
            layers[f"ray_data.{role}.remote_wall_s"] = stats["remote_wall_s"]
            if role != "write":
                layers[f"ray_data.{role}.rows"] = stats["rows"]
                layers[f"ray_data.{role}.mb"] = stats["bytes"] / 1e6
    for q, walls in getattr(wl, "query_walls", {}).items():
        layers[f"pipelines.queries.{q}.wall_s"] = walls[0]
    for name, seconds in self_times(tracer.spans).items():
        layers[f"{name}.self_s"] = seconds
    return layers, tracer


def run(args: argparse.Namespace) -> dict:
    from perfbench.cluster import NUM_CPUS, RaySession
    from perfbench.kernels import kernel_rates
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = WORK_DIR / run_id
    wl = WORKLOADS[args.workload](str(work), args.seed, args.scale)
    session = RaySession(str(ROOT), str(WORK_DIR / "ray"))
    try:
        wl.make_inputs()
        wl.deadline = time.monotonic() + RUN_DEADLINE_S
        setups = []
        for k in range(1 if args.trace else SETUP_SESSIONS):
            if k:
                session.stop()
            start = time.perf_counter()
            session.start()
            wl.warm(str(k))
            setups.append(time.perf_counter() - start)

        def kernel_fn(tracer: Tracer) -> dict[str, float]:
            return kernel_rates(*wl.sample, wl.long_pdfs, tracer)

        if args.trace:
            measured, tracer = traced(wl, run_id, kernel_fn)
            tracer.write(str(WORK_DIR / f"spans-{run_id}.json"))
            declared = declared_metrics("per_layer")
            # layers this workload's path does not reach read 0
            values = {n: measured.get(n, 0.0) for n in declared}
        else:
            kernels = kernel_fn(Tracer(run_id, enabled=False))
            measured, extra = untraced(wl, args.seconds, setups, kernels)
            extra.update(kernels)
            declared = declared_metrics("end_to_end")
            values = {n: measured[n] for n in declared}
        unknown = sorted(set(measured) - set(declared))
        if unknown:
            raise RuntimeError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(WORK_DIR / "ray", ignore_errors=True)

    check = wl.check
    for note in check.notes:
        print(f"FAILED {note}", file=sys.stderr)
    summary = {
        "ops_failed_frac": (check.failed / check.attempted, "fraction"),
        "cluster.num_cpus": (NUM_CPUS, "count"),
    }
    if not args.trace:
        summary.update({k: (v, unit_of(k)) for k, v in extra.items()})
    for name, value in values.items():
        print(f"{name:58s} {value:14.6g} {declared[name]}")
    for name, (value, unit) in summary.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    return {
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": v, "unit": declared[n]} for n, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "ai_pdf_extraction_ray" / "__init__.py").is_file():
        print("perfbench: the ai_pdf_extraction_ray library is not in this checkout",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
