"""braidcong benchmark: one workload, one process, one job at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,image,abelian,cryst} \
        --seed N --seconds S --trace {0,1} [--out BENCH_label.json]

The process imports braidcong from src/, builds the workload's inputs from the
seed and warms up (set-up, repeated SETUPS times), then runs passes over the
workload's job list, checking every answer, until another pass would end
after --seconds.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics.  Times are in reference seconds (see speed.py): CPU time scaled by
the speed of a reference loop timed alongside each job, so that a drift in
the host's speed does not read as a change in the library's.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe
from tracing import COUNT_UNITS, LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidcong"
SETUPS = 9


def fresh_import():
    """Import braidcong from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "braidcong" or n.startswith("braidcong.")]:
        del sys.modules[name]
    bc = importlib.import_module("braidcong")
    if Path(bc.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"braidcong imported from {bc.__file__}, not from {PACKAGE}")
    return bc


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(jobs, tally: Tally, probe: SpeedProbe, tracer: Tracer | None = None):
    """One pass over the job list: solve times by job label in reference
    seconds, the pass's raw wall time, and the solve times of the answers'
    parts, scaled like their job's.

    Each job starts after a full garbage collection, with no earlier answer
    alive.  Checks run after each job, outside its solve time and outside
    tracing.
    """
    times: dict[str, float] = {}
    parts: dict[str, float] = {}
    raw = 0.0
    for job in jobs:

        def attempt(job=job):
            try:
                return job.run(), None
            except Exception as exc:  # a failed job is scored, and the run goes on
                return None, f"raised {type(exc).__name__}: {exc}"

        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            (answer, error), timing = probe.measure(attempt)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times[job.label] = timing.reference_s
        raw += timing.raw_s
        if error is None:
            error = job.check(answer)
            if job.parts is not None:
                scale = timing.reference_s / timing.raw_s
                parts.update({k: v * scale for k, v in job.parts(answer).items()})
        answer = None
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            tally.errors.append(f"{job.label}: {error}")
    return times, raw, parts


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the result, metadata and samples as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no braidcong sources at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))

    def set_up():
        bc = fresh_import()
        workload = WORKLOADS[args.workload](bc, args.seed)
        workload.warm_up()
        return bc, workload

    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUPS):
        gc.collect()
        (bc, workload), timing = probe.measure(set_up)
        setup_times.append(timing.reference_s)

    jobs = workload.jobs()
    tracer = Tracer(bc) if args.trace else None
    tally = Tally()
    plain: list[dict[str, float]] = []
    plain_raw: list[float] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    claims: list[dict[str, float]] = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        # alternate which kind of pass goes first, so drift hits both alike
        kinds = (False, True) if len(plain) % 2 == 0 else (True, False)
        for traced_pass in kinds if tracer else (False,):
            if traced_pass:
                tracer.reset()
                times, raw, _ = run_pass(jobs, tally, probe, tracer)
                traced.append(times)
                # span times in reference seconds, at the pass's scale
                scale = sum(times.values()) / raw
                spans = tracer.pass_metrics()
                layers.append({
                    name: spans[name] * scale if unit == "s" else spans[name]
                    for name, unit in LAYER_METRICS
                })
            else:
                times, raw, parts = run_pass(jobs, tally, probe)
                plain.append(times)
                plain_raw.append(raw)
                claims.append(parts)
        now = time.perf_counter()
        if now - started + (now - cycle_start) > args.seconds:
            break

    def wall(passes):
        return statistics.median(sum(t.values()) for t in passes)

    if tracer is None:
        metrics = {
            "wall_s": metric(wall(plain), "s"),
            "largest_job_s": metric(statistics.median(t[workload.largest] for t in plain), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "correct_frac": metric((tally.attempted - tally.failed) / tally.attempted, "frac"),
        }
    else:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if unit in COUNT_UNITS:
                # counts from the last pass, after any cache has filled
                metrics[name] = metric(layers[-1][name], unit)
            else:
                metrics[name] = metric(statistics.median(p[name] for p in layers), unit)
        for claim_id, _ in bc.claims.CLAIMS:
            seconds = [c[claim_id] for c in claims if claim_id in c]
            metrics[f"claims.{claim_id}.busy_s"] = metric(statistics.median(seconds) if seconds else 0.0, "s")
        metrics["trace.overhead_frac"] = metric(wall(traced) / wall(plain) - 1, "frac")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "setups": SETUPS,
        "passes": len(plain),
        "traced_passes": len(traced),
        "jobs_per_pass": len(jobs),
        "loop": "closed, one job at a time, no threads",
        "times": f"reference seconds, REFERENCE_S = {REFERENCE_S}",
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for label in plain[0]:
        print(f"job {label}: median {statistics.median(t[label] for t in plain):.4f} s over {len(plain)} passes")
    print(f"raw wall time of a pass, probe included: median {statistics.median(plain_raw):.4f} s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"result": result, "meta": meta, "setup_s": setup_times, "passes": plain,
                 "raw_pass_s": plain_raw, "traced_passes": traced, "layers": layers, "errors": tally.errors},
                handle, indent=2, sort_keys=True,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
