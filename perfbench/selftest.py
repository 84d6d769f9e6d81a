"""Self-tests of the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py [fingerprint] [schema] [counts]
        [--workload W ...] [--seed N]

With no test named, all three run.  Exit status 0 means every test passed.

fingerprint  The verify report body for seed 2026, without its timing block,
             serialized as `braidcong verify --json` writes it, hashes to
             VERIFY_2026_SHA256.  A refactor that must keep the body
             byte-identical runs this before and after.
schema       run.py reports exactly the metrics BENCHMARK.json names, with
             the same units, in both modes.
counts       Two traced runs with the same seed report identical count
             metrics on each workload, so counts can back a later claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
VERIFY_2026_SHA256 = "976347de178a915a8dca37b863a941093ed70e0e0129943a986af93ad6e638ba"


def fingerprint(args) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from braidcong.claims import SuiteConfig, run_suite

    body = run_suite(SuiteConfig(seed=2026)).to_json_dict()
    del body["timing"]
    digest = hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()
    if digest != VERIFY_2026_SHA256:
        return [f"verify body for seed 2026 hashes to {digest}, expected {VERIFY_2026_SHA256}"]
    return []


def run(workload: str, seed: int, trace: int) -> dict:
    """Result of one shortest run: one pass, or one pass of each kind."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} run exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def schema(args) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = units(run(args.workload[0], args.seed, trace))
        if got != want:
            problems.append(f"--trace {trace} reports {sorted(set(got) ^ set(want))} unlike BENCHMARK.json {key}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


def counts(args) -> list[str]:
    problems = []
    for workload in args.workload:
        first, second = (run(workload, args.seed, 1) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} jobs failed")
        for name, m in first["metrics"].items():
            if m["unit"] in COUNT_UNITS and m["value"] != second["metrics"][name]["value"]:
                problems.append(
                    f"{workload}: {name} read {m['value']} then {second['metrics'][name]['value']}"
                )
        print(f"counts {workload}: " + ", ".join(
            f"{name}={m['value']}" for name, m in first["metrics"].items()
            if m["unit"] in COUNT_UNITS and m["value"]
        ))
    return problems


TESTS = {"fingerprint": fingerprint, "schema": schema, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("tests", nargs="*", metavar="TEST", help=", ".join(TESTS))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()
    unknown = set(args.tests) - set(TESTS)
    if unknown:
        parser.error(f"unknown tests {sorted(unknown)}; choose from {', '.join(TESTS)}")
    args.workload = args.workload or sorted(WORKLOADS)
    failed = False
    for name in args.tests or TESTS:
        problems = TESTS[name](args)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
