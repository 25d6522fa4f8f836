"""DiTyCO end-to-end benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload pubsub --seed 1 --seconds 25 --trace 0

The workload is run in batches, each in a fresh interpreter, for about
``--seconds`` (at least one batch).  With ``--trace 0`` every batch is
untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced batches alternate and the per-layer metrics are
reported, together with the tracing overhead (traced over untraced host
time).  The spans of the last traced batch are written to
``perfbench/out/spans-<workload>.txt``.

Every output is checked.  Human-readable lines go first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads, metrics and clocks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Per-batch wall-clock limit; a batch that overruns counts as failed.
BATCH_TIMEOUT_S = 150.0


def _source_root() -> Path:
    return Path.cwd() / "src"


def _run_child(workload: str, seed: int, traced: bool) -> dict:
    """One batch in a fresh interpreter; returns its result dict, or a
    failure record when it crashes or overruns (a batch that dies
    without reporting counts as one failed op)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--batch",
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_source_root())] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"batch overran {BATCH_TIMEOUT_S:.0f} s",
                "ops": 1, "failed": 1}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: {' | '.join(tail)}",
                "ops": 1, "failed": 1}
    return json.loads(lines[-1])


def _check_determinism(batches: list[dict]) -> list[str]:
    """Sim keys must agree exactly across every batch of the run,
    traced and untraced (spans must not change the schedule)."""
    keyed = [b["det"] for b in batches if "det" in b]
    problems = []
    if any(d != keyed[0] for d in keyed[1:]):
        problems.append("simulated results differ between batches "
                        "of one seed")
    instr = {b["layers"]["vm.instructions"] for b in batches
             if "layers" in b}
    if len(instr) > 1:
        problems.append(f"vm.instructions differ between traced "
                        f"batches: {sorted(instr)}")
    return problems


def _check_attribution(layers: dict) -> list[str]:
    """The per-layer self times, less those spent off the main thread,
    plus ``unattributed_s`` must add up to the traced wall time, and no
    span may overlap its parent or leave the traced window."""
    problems = []
    total = (sum(v for k, v in layers.items() if k.endswith(".self_s"))
             - layers["trace.offthread_self_s"]
             + layers["trace.unattributed_s"])
    if abs(total - layers["trace.wall_s"]) > 1e-6:
        problems.append("layer self times plus unattributed_s do not add "
                        "up to the traced wall time")
    if layers["trace.unattributed_s"] < 0 or layers["trace.bad_spans"]:
        problems.append(f"{layers['trace.bad_spans']} span(s) overlap "
                        "their parent or leave the traced window")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run batches for about ``seconds``; return the aggregate result.

    A batch starts only if, taking as long as the last one of its kind,
    it ends within ``seconds``; the first batch of each kind always runs.
    With ``trace``, untraced and traced batches alternate."""
    kinds = (False, True) if trace else (False,)
    started = time.perf_counter()
    last_s = {}
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    for n in itertools.count():
        is_traced = kinds[n % len(kinds)]
        elapsed = time.perf_counter() - started
        if problems or (n >= len(kinds)
                        and elapsed + last_s[is_traced] > seconds):
            break
        batch = _run_child(workload, seed, is_traced)
        last_s[is_traced] = time.perf_counter() - started - elapsed
        attempted += batch["ops"]
        failed += batch["failed"]
        if "crashed" in batch:
            problems.append(batch["crashed"])
            continue
        problems.extend(batch["problems"])
        (traced if is_traced else plain).append(batch)
    batches = plain + traced
    problems.extend(_check_determinism(batches))
    result = {"workload": workload, "attempted": attempted,
              "failed": failed, "problems": problems,
              "batches": len(batches)}
    if not plain or (trace and not traced):
        return result
    # Host speed on a shared machine drifts by tens of percent within
    # seconds.  Every batch does the same work between its segment
    # marks, so each segment keeps its least disturbed (fastest) time
    # and the host time is their sum.  Set-up is sampled many times and
    # its median kept.  Simulated figures are identical in every batch
    # (checked above).
    host_s = sum(min(seg) for seg in zip(*(b["segments_s"] for b in plain)))
    result["host_ops_per_s"] = plain[0]["measured"] / host_s
    sim = plain[0]["det"]["latency"]
    result["metrics"] = {
        "setup_s": statistics.median(
            [t for b in plain for t in b["setup_s"]]),
        "sim_latency_mean_us": sim["mean_us"],
        "sim_latency_p99_us": sim["p99_us"],
        "peak_rss_mb": statistics.median([b["peak_rss_mb"] for b in plain]),
    }
    result["sim_latency"] = sim
    if workload == "socket_rpc":
        fastest = max(plain, key=lambda b: b["host_ops_per_s"])
        result["wall_latency"] = fastest["latency"]
    result["ops_per_batch"] = plain[0]["ops"]
    if trace:
        layers = {name: statistics.median_low([b["layers"][name]
                                               for b in traced])
                  for name in traced[0]["layers"]}
        layers["host_ops_per_s"] = result["host_ops_per_s"]
        layers["trace.overhead_ratio"] = (
            min(b["traffic_s"] for b in traced)
            / min(b["traffic_s"] for b in plain))
        for b in traced:
            problems.extend(_check_attribution(b["layers"]))
        result["layers"] = layers
    return result


def _print_report(result: dict, trace: bool, units: dict) -> None:
    workload = result["workload"]
    ops = result.get("ops_per_batch", 0)
    print(f"workload {workload}: {result['batches']} batch(es) of "
          f"{ops} op(s)")
    for clock in ("sim", "wall"):
        lat = result.get(f"{clock}_latency")
        if lat and lat.get("count"):
            print(f"  {clock}_latency_p50_us {lat['p50_us']:.3f}  "
                  f"{clock}_latency_p99_us {lat['p99_us']:.3f}  "
                  f"{clock}_latency_mean_us {lat['mean_us']:.3f}  "
                  f"(n={lat['count']} per batch)")
    if "host_ops_per_s" in result and not trace:
        print(f"  host_ops_per_s {result['host_ops_per_s']:.6g} 1/s")
    for name, value in result.get("metrics", {}).items():
        print(f"  {name} {value:.6g} {units[name]}")
    if trace:
        for name, value in result.get("layers", {}).items():
            print(f"  {name} {value:.6g} {units.get(name, '')}")
    frac = result["failed"] / result["attempted"] if result["attempted"] \
        else 0.0
    print(f"  ops_failed_frac {frac:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def _batch_main(args) -> int:
    sys.path.insert(0, str(HERE))
    from bench import SIZES, run_batch

    spans = HERE / "out" / f"spans-{args.workload}.txt" if args.trace \
        else None
    try:
        result = run_batch(args.workload, args.seed, bool(args.trace),
                           spans_path=spans)
    except Exception as exc:
        # The batch boundary: every op of a batch that raised failed.
        traceback.print_exc()
        ops = SIZES[args.workload]
        result = {"crashed": f"{type(exc).__name__}: {exc}",
                  "ops": ops, "failed": ops}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (_source_root() / "repro" / "__init__.py").is_file():
        print(f"perfbench: no DiTyCO sources under {_source_root()}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.batch:
        return _batch_main(args)

    names = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    values = result.get("layers" if args.trace else "metrics", {})
    missing = [n for n in names if n not in values]
    if missing and values:
        result["problems"].append(f"metrics not measured: {missing}")
    _print_report(result, bool(args.trace), units)
    if not values:
        return 1
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names if n in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
