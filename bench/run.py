#!/usr/bin/env python3
"""gfekit benchmark: four seeded workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload frey --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Run from the root of a source checkout; gfekit is imported from ./src. With
--trace 0 the last stdout line is the end-to-end result (wall_s, item_p50_ms,
item_tail_ms, setup_s, peak_rss_mb); with --trace 1 it is the per-layer
result of a separate traced run. Every run checks its outputs against
oracles and pins, and exits 1 when any item failed or any output changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
SETUP_PROBES = 7
# Median time of `speed_probe()` on the 2-vCPU machine the benchmark was
# written on. End-to-end timings are scaled by PROBE_REF_S / (probe time
# measured while they ran), which takes out most of the machine's speed swings.
PROBE_REF_S = 0.006
PROBE_INTERVAL_S = 0.25
# Kept out of every run made while the benchmark was written; use it to check
# that a claimed gain also holds on inputs nobody tuned against.
CLAIM_SEED = 271828
END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
clock = time.perf_counter


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import gfekit from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "gfekit" / "__init__.py").is_file():
        fail(f"no gfekit sources under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import gfekit

    if Path(gfekit.__file__).resolve().parent != (src / "gfekit").resolve():
        fail(f"imported gfekit from {gfekit.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Environment record.


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gfekit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src_hash.update(path.relative_to(ROOT).as_posix().encode())
            src_hash.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "claim_seed": CLAIM_SEED,
    }


# ---------------------------------------------------------------------------
# Statistics.


def tail(batches: list[list[float]]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten items of one
    batch beyond it, estimated over the items of every batch. Fixing the
    percentile by the batch size keeps it the same however many batches a
    run completes. With 10 items or fewer per batch it is the slowest item,
    as the median over batches of each batch's maximum."""
    per_batch = len(batches[0])
    if per_batch <= 10:
        return statistics.median(max(b) for b in batches), 100.0
    xs = sorted(x for b in batches for x in b)
    pct = (per_batch - 10) / per_batch
    return xs[max(0, math.ceil(pct * len(xs)) - 1)], 100.0 * pct


def _probe_kernel() -> int:
    n = 10**18 + 9
    acc = 0
    for i in range(1, 40001):
        acc += n % i + (i * i) % 7
    return acc


def speed_probe() -> float:
    """Median of three timings of a fixed pure-Python kernel that uses no
    gfekit code: how fast this machine runs Python right now."""
    times = []
    for _ in range(3):
        t0 = clock()
        _probe_kernel()
        times.append(clock() - t0)
    return statistics.median(times)


class SpeedTrack:
    """The speed probe, run between items at most every PROBE_INTERVAL_S
    (or whenever forced). Keeps every sample and the total time it took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def __call__(self, force: bool = False) -> float | None:
        now = clock()
        if not force and now - self.last < PROBE_INTERVAL_S:
            return None
        sample = speed_probe()
        self.samples.append(sample)
        self.last = clock()
        self.spent += self.last - now
        return sample


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def setup_probe(code: str) -> float:
    """Seconds a fresh interpreter takes to import gfekit and build the
    workload's lazy tables (interpreter start-up excluded)."""
    from workloads import child_env

    script = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Batches.


class Tally:
    """Attempted and failed items across batches, with the first problems."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, set[str]] = {}   # input draw -> output digests

    def add(self, batch, draw: int) -> None:
        bad = batch.errors + self.wl.check(batch)
        self.attempted += batch.attempted
        self.failed += len(bad)
        self.problems += bad[: max(0, 20 - len(self.problems))]
        self.digests.setdefault(draw, set()).add(batch.digest)

    def fail(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.problems += problems

    def finish(self) -> dict:
        pin = self.wl.pin()
        first = sorted(self.digests.get(0, {""}))[0]
        if any(len(d) > 1 for d in self.digests.values()):
            self.fail(["batches of identical inputs gave different outputs"])
        if pin is not None and first != pin:
            self.fail([f"output digest {first[:16]} differs from its pin {pin[:16]} "
                       f"for seed {self.wl.seed}"])
        return {"output_digest": first, "pinned": pin is not None,
                "problems": self.problems}


def run_batches(wl, seconds: float, tally: Tally, *, fresh: bool, on_batch=None,
                track: SpeedTrack | None = None, **kw) -> list:
    """Closed loop of batches until the next one would overrun `seconds`.

    With `fresh`, batch k runs on the k-th input draw (drawn before its
    timer starts); otherwise every batch reruns the current inputs. With a
    speed `track`, each batch gets `speed`, the median probe time from just
    before it to just after it.
    """
    batches = []
    start = clock()
    while True:
        t0 = clock()
        draw = len(batches) if fresh else 0
        if draw:
            wl.generate(draw)  # draw 0 is generated before the run starts
        if track is None:
            batch = wl.run_batch(**kw)
        else:
            first = len(track.samples)
            track(force=True)
            batch = wl.run_batch(probe=track, **kw)
            track(force=True)
            batch.speed = statistics.median(track.samples[first:])
        tally.add(batch, draw)
        batches.append(batch)
        if on_batch is not None:
            on_batch(batch)
        batch.outputs = []  # checked; keep memory flat however many batches run
        if clock() - start + (clock() - t0) > seconds:
            return batches


# ---------------------------------------------------------------------------
# End-to-end run (tracing off).


def scales(probes: list[float]) -> list[float]:
    """Speed scale of each interval between consecutive probes."""
    return [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def end_to_end(wl, seconds: float) -> tuple[dict, dict, Tally]:
    # The machine's speed swings differ between its CPUs from one moment to
    # the next. Pinned to one CPU, the benchmark, the commands it starts and
    # the speed probe all see the same swings, so the probe can scale them out.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup, setup_probes = [], [speed_probe()]
    for _ in range(SETUP_PROBES):
        setup.append(setup_probe(wl.setup_code))
        setup_probes.append(speed_probe())
    exec(wl.setup_code, {})  # same lazy tables, built here before timing
    tally = Tally(wl)
    track = SpeedTrack()
    batches = run_batches(wl, seconds, tally, fresh=wl.fresh_inputs, track=track,
                          time_items=True)
    walls, items = [], []
    for batch in batches:
        k = PROBE_REF_S / batch.speed
        if batch.item_probes:
            scaled = [x * s for x, s in zip(batch.items, scales(batch.item_probes))]
            walls.append(sum(scaled))
        else:
            scaled = [x * k for x in batch.items]
            walls.append(batch.wall * k)
        items.append(scaled)

    def summary(walls, items, setup_s):
        tail_s, tail_pct = tail(items)
        return {"wall_s": statistics.median(walls),
                "item_p50_ms": statistics.median(x for b in items for x in b) * 1000,
                "item_tail_ms": tail_s * 1000,
                "setup_s": statistics.median(setup_s)}, tail_pct

    raw, tail_pct = summary([b.wall for b in batches], [b.items for b in batches], setup)
    metrics, _ = summary(walls, items,
                         [x * k for x, k in zip(setup, scales(setup_probes))])
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = {
        "batches": len(batches),
        "batch_walls_raw": [round(b.wall, 4) for b in batches],
        "speed_scales": [round(PROBE_REF_S / b.speed, 4) for b in batches],
        "speed_samples": len(track.samples),
        "unscaled": raw,
        "item_samples": sum(len(b.items) for b in batches),
        "item_tail_percentile": round(tail_pct, 3),
        "setup_s_samples": len(setup),
        "failed_frac": tally.failed / max(1, tally.attempted),
    }
    return metrics, notes, tally


# ---------------------------------------------------------------------------
# Traced run.


def merge(into: dict, snap: dict) -> None:
    for key in ("calls", "self", "edges", "extra"):
        bucket = into.setdefault(key, {})
        for name, value in snap.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def traced(wl, seconds: float) -> tuple[dict, dict, Tally]:
    import tracer as tracing
    from workloads import COMMANDS

    exec(wl.setup_code, {})
    tally = Tally(wl)
    reference = wl.run_batch(time_items=False)  # untraced, for the overhead
    tally.add(reference, 0)
    tr = tracing.install()
    problems = [f"not rebound: {name}" for name in tracing.unbound_originals(tr)]
    trace_dir = wl.workdir / "trace"
    trace_dir.mkdir()
    agg: dict = {}
    cache = [0, 0, 0]   # structure lru hits, misses; checkpoint bytes
    import_s: list[float] = []
    cmd_wall: dict[str, float] = {}

    def collect(batch) -> None:
        if wl.name == "campaign":
            cache[0] += wl.cache_stats[0]
            cache[1] += wl.cache_stats[1]
            cache[2] += wl.checkpoint_bytes
        if wl.name != "reproduce":
            return
        for (label, _), wall in zip(batch.outputs, batch.items):
            cmd_wall[label] = cmd_wall.get(label, 0.0) + wall
            dump = trace_dir / f"{label}.json"
            if not dump.exists():
                problems.append(f"{label}: no trace written")
                continue
            snap = json.loads(dump.read_text())
            dump.unlink()
            merge(agg, snap)
            cache[0] += snap["cache_hits"]
            cache[1] += snap["cache_misses"]
            import_s.append(snap["import_s"])
            problems.extend(f"{label}: not rebound: {n}" for n in snap["unbound"])
            got = snap["calls"].get("catalog.count_remaining", 0)
            if label == "count_beal" and got != 4:
                problems.append(f"count beal --ledger ran count_remaining {got} "
                                f"times, expected 4")

    batches = run_batches(wl, seconds, tally, fresh=False, on_batch=collect,
                          time_items=False, trace_dir=trace_dir)
    hits, misses, ckpt_bytes = cache
    if wl.name != "reproduce":
        merge(agg, tr.snapshot())
    n = len(batches)
    calls = {k: v / n for k, v in agg.get("calls", {}).items()}
    own = {k: v / n for k, v in agg.get("self", {}).items()}
    extra = {k: v / n for k, v in agg.get("extra", {}).items()}
    edges = {k: v / n for k, v in agg.get("edges", {}).items()}

    def c(name):
        return calls.get(name, 0.0)

    def s(*names):
        return sum(own.get(name, 0.0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for fn in ("factor", "is_prime", "integer_nth_root", "is_perfect_square"):
        m[f"arith.{fn}.calls"] = c(f"arith.{fn}")
        m[f"arith.{fn}.self_s"] = s(f"arith.{fn}")
        if fn == "factor":
            for cls in ("le1e6", "le1e12", "gt1e12"):
                m[f"arith.factor.self_s.{cls}"] = extra.get(f"arith.factor.self_s.{cls}", 0.0)
    for fn in ("LinLog.sign", "LinLog.interval"):
        m[f"linlog.{fn}.calls"] = c(f"linlog.{fn}")
        m[f"linlog.{fn}.self_s"] = s(f"linlog.{fn}")
    m["linlog.escalation_ratio"] = ratio(
        edges.get("linlog.LinLog.interval<linlog.LinLog.sign", 0.0),
        extra.get("linlog.sign_with_logs", 0.0))
    for fn in ("log_of_int", "LinLog.float"):
        m[f"linlog.{fn}.calls"] = c(f"linlog.{fn}")
        m[f"linlog.{fn}.self_s"] = s(f"linlog.{fn}")
    m["freycurves.invariants.calls"] = c("freycurves.invariants")
    m["freycurves.invariants.self_s"] = s("freycurves.invariants")
    for fn in ("forbidden_interval", "lemma13_chain", "certificate", "scenario"):
        m[f"bounds.{fn}.calls"] = c(f"bounds.{fn}")
        m[f"bounds.{fn}.self_s"] = s(f"bounds.{fn}")
    m["bounds.applicable_ratio"] = ratio(extra.get("bounds.applicable", 0.0),
                                         extra.get("bounds.results", 0.0))
    m["structure.structure_profile.calls"] = c("structure.structure_profile")
    m["structure.structure_profile.self_s"] = s("structure.structure_profile")
    m["structure.sieves.self_s"] = s(*(f"structure.{fn}" for fn in tracing.SIEVES))
    m["structure.cache_hit_ratio"] = ratio(hits, hits + misses)
    for fn in ("check_pair", "check_power_tail"):
        m[f"search.{fn}.calls"] = c(f"search.{fn}")
        m[f"search.{fn}.self_s"] = s(f"search.{fn}")
        m[f"search.{fn}.cells"] = extra.get(f"search.{fn}.cells", 0.0)
    m["search.small_z1_scan.self_s"] = s("search.small_z1_scan")
    m["campaign.build_plan.self_s"] = s("campaign.build_p1_plan", "campaign.build_p2_plan",
                                        "campaign.build_p3_plan")
    m["campaign.run_task.calls"] = c("campaign.run_task")
    m["campaign.run_task.self_s"] = s("campaign.run_task")
    shards1 = extra.get("campaign.run_campaign.shards1_s", 0.0)
    shards2 = extra.get("campaign.run_campaign.shards2_s", 0.0)
    m["campaign.run_campaign.shards1_s"] = shards1
    m["campaign.run_campaign.shards2_s"] = shards2
    m["campaign.scaling_efficiency"] = ratio(shards1, 2 * shards2)
    m["campaign.wait_s"] = extra.get("campaign.wait_s", 0.0)
    m["campaign.checkpoint_bytes"] = ckpt_bytes / n
    m["catalog.count_remaining.calls"] = c("catalog.count_remaining")
    m["catalog.count_remaining.self_s"] = s("catalog.count_remaining")
    m["catalog.status.calls"] = c("catalog.status")
    m["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    for label in COMMANDS:
        m[f"cli.{label}.wall_s"] = cmd_wall.get(label, 0.0) / n
    wall = statistics.mean(b.wall for b in batches)
    layer_total = 0.0
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = s(*(k for k in own if k.startswith(f"{layer}.")))
        layer_total += m[f"layer.{layer}.self_s"]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - layer_total
    m["trace.untraced_wall_s"] = reference.wall
    m["trace.overhead_s"] = wall - reference.wall

    # Counts known in advance: a miss means a wrapper missed a binding.
    linlog_calls = sum(v for k, v in calls.items() if k.startswith("linlog."))
    if wl.name == "frey" and linlog_calls:
        problems.append(f"linlog ran {linlog_calls} calls per batch on frey, expected 0")
    if wl.name != "frey" and m["freycurves.invariants.calls"]:
        problems.append("freycurves.invariants ran outside frey")
    if m["trace.unattributed_s"] < 0:
        problems.append("layer self times exceed the traced wall time")
    tally.fail(problems)

    spans = OUT_DIR / f"spans-{wl.name}.jsonl"
    spans.unlink(missing_ok=True)
    if wl.name == "reproduce":
        if (trace_dir / "spans.jsonl").exists():
            shutil.move(trace_dir / "spans.jsonl", spans)
    else:
        tr.write_spans(spans, tag="benchmark")
    notes = {"traced_batches": n, "spans_file": spans.relative_to(ROOT).as_posix()}
    return m, notes, tally


# ---------------------------------------------------------------------------
# Entry points.


def run_one(args) -> int:
    load_program()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        wl.generate()
        if args.trace:
            metrics, notes, tally = traced(wl, args.seconds)
            units = {}
        else:
            metrics, notes, tally = end_to_end(wl, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details = tally.finish()
    details.update(notes)
    details["environment"] = environment(args.seed)
    details.update(workload=args.workload, size=args.size, trace=args.trace)
    print(f"workload {args.workload} (seed {args.seed}, size {args.size}, "
          f"trace {args.trace}): {tally.attempted} items, {tally.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units.get(name, layer_unit(name))}")
    if not args.trace:
        print(f"  {'failed_frac':40s} {notes['failed_frac']:>14.6g} ratio")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".cells"):
        return "count"
    if name.endswith("_ratio") or name.endswith("efficiency"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["frey", "bounds", "campaign", "reproduce", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs a few items per workload (self-test)")
    args = p.parse_args()
    if args.workload == "all":
        load_program()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
