"""brokerlab benchmark: one closed-loop client, one exact query per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload rounds --seed 1 --seconds 16 --trace 0

Workloads: rounds, truthfulness, dynamics, price-benchmarks (see
perfbench/README.md).  The seed generates the workload's scenario pool
(perfbench/gen.py); the library, imported from ./src, sees only the
scenarios.  Each op parses one scenario, calls the library function behind
the matching CLI subcommand, checks the answer and serializes the report.

--trace 0 times whole passes over the pool, back to back, until --seconds
have elapsed, and reports the end-to-end metrics.  --trace 1 runs a fixed
prefix of the pool once untraced and once with every layer wrapped, and
reports per-layer metrics; the spans are written to perfbench/out/.
Human-readable lines (including failed_frac and a sha256 digest of the
canonical reports) come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from ops import run_op  # noqa: E402
from tracer import Tracer  # noqa: E402

# workload -> (pool size, traced prefix) at full and at smoke size; a full
# pass takes 3-8 s on a quiet 2-core x86-64 container
SIZES = {
    "rounds": ((1000, 1000), (30, 30)),
    "truthfulness": ((800, 300), (9, 9)),
    "dynamics": ((150, 100), (4, 4)),
    "price-benchmarks": ((2000, 400), (6, 6)),
}
SETUP_REPEATS = 7
MODULES = ["scenario", "validity", "mechanism", "core", "equilibrium", "strategy", "linineq", "mdfm"]

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PER_LAYER = [
    ("validity.enumerate_valid.calls", "count"),
    ("validity.enumerate_valid.self_s", "s"),
    ("validity.enumerate_valid.allocations", "count"),
    ("validity.is_valid.calls", "count"),
    ("validity.is_valid.self_s", "s"),
    ("mechanism.run.calls", "count"),
    ("mechanism.run.self_s", "s"),
    ("mechanism.run.winner_frac", "ratio"),
    ("core.surplus.calls", "count"),
    ("core.surplus.self_s", "s"),
    ("core.welfare.calls", "count"),
    ("core.welfare.self_s", "s"),
    ("equilibrium.tx_deviation_candidates.calls", "count"),
    ("equilibrium.tx_deviation_candidates.self_s", "s"),
    ("equilibrium.tx_deviation_candidates.candidates", "count"),
    ("equilibrium.node_deviation_candidates.calls", "count"),
    ("equilibrium.node_deviation_candidates.self_s", "s"),
    ("equilibrium.node_deviation_candidates.candidates", "count"),
    ("equilibrium.check_pne.self_s", "s"),
    ("equilibrium.check_dsic_barring_b.self_s", "s"),
    ("strategy.broker_best_response.calls", "count"),
    ("strategy.broker_best_response.self_s", "s"),
    ("strategy.broker_best_response.allocations_examined", "count"),
    ("strategy.best_response_dynamics.self_s", "s"),
    ("strategy.best_response_dynamics.steps", "count"),
    ("strategy.welfare_max_allocation.calls", "count"),
    ("strategy.welfare_max_allocation.self_s", "s"),
    ("linineq.find_point.calls", "count"),
    ("linineq.find_point.self_s", "s"),
    ("linineq.find_point.feasible_frac", "ratio"),
    ("linineq.enumerate_cells.self_s", "s"),
    ("linineq.enumerate_cells.cells", "count"),
    ("mdfm.run_benchmarks.self_s", "s"),
    ("scenario.parse_scenario.self_s", "s"),
    ("scenario.serialize.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uninstrumented_s", "s"),
]


def load_library() -> SimpleNamespace:
    """Import brokerlab from ./src and nowhere else."""
    if not (SRC / "brokerlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no brokerlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"brokerlab.{m}") for m in MODULES})
    if Path(lib.scenario.__file__).resolve().parent != SRC / "brokerlab":
        raise SystemExit(f"error: brokerlab was imported from {lib.scenario.__file__}")
    return lib


def measure_setup(payloads: list) -> float:
    """Median over fresh interpreters of importing brokerlab and parsing the
    pool, each at reference host speed."""
    data = json.dumps(payloads).encode()
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=data,
            capture_output=True,
            check=True,
            timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def run_pass(lib, items, host, tracer=None):
    """One pass over ``items``: each op's (wall ns, place among the host's
    slices), the failures, and the digest of the canonical reports."""
    timings, failures, digest = [], [], hashlib.sha256()
    for index, item in enumerate(items):
        place = host.tick()
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter_ns()
        text, error = run_op(lib, item)
        timings.append((time.perf_counter_ns() - t0, place))
        digest.update(text.encode() + b"\n")
        if error is not None:
            failures.append((index, error))
    return timings, failures, digest.hexdigest()


def untraced(lib, pool, seconds, payloads):
    """Whole passes over the pool, back to back, until ``seconds`` have
    elapsed; stopping only between passes keeps every run's op mix equal to
    the pool's.  Latencies are at reference host speed (hostspeed.py)."""
    host = HostSpeed()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    timings, failures, digest = run_pass(lib, pool, host)
    passes = 1
    while time.perf_counter_ns() < deadline:
        more, more_failures, _ = run_pass(lib, pool, host)
        timings += more
        failures += more_failures
        passes += 1
    host.tick()
    ms = [elapsed / host.slowdown(place) / 1e6 for elapsed, place in timings]
    metrics = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "setup_s": measure_setup(payloads),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = sum(elapsed for elapsed, _ in timings)
    lines = [
        f"ops {len(ms)} in {passes} passes over a pool of {len(pool)}; latency samples {len(ms)}",
        f"raw wall time of the ops {wall / 1e9:.3f} s, {sum(ms) / 1e3:.3f} s at reference speed",
        f"setup_s is the median of {SETUP_REPEATS} fresh interpreters",
        f"digest sha256:{digest}",
    ]
    return metrics, len(ms), failures, lines, True


def traced(lib, items, workload):
    """The items once untraced and once traced; per-layer metrics."""
    host, tracer = HostSpeed(), Tracer()
    untraced_timings, _, _ = run_pass(lib, items, host)
    tracer.install()
    try:
        timings, failures, digest = run_pass(lib, items, host, tracer)
    finally:
        tracer.close()
    host.tick()

    def at_reference(pass_timings):
        return sum(elapsed / host.slowdown(place) for elapsed, place in pass_timings)

    wall_ns = sum(elapsed for elapsed, _ in timings)
    errors = tracer.check_identities()
    values = tracer.metrics(wall_ns, at_reference(timings) / at_reference(untraced_timings) - 1)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}.tsv"
    tracer.write_spans(spans_path)
    sites = ", ".join(f"{k}={v}" for k, v in tracer.bindings.items())
    lines = [
        f"traced ops {len(items)}; traced wall {wall_ns / 1e9:.3f} s",
        f"binding sites wrapped: {sites}",
        f"identities: {'hold' if not errors else '; '.join(errors)}",
        f"spans {len(tracer.span_name)} written to {spans_path.relative_to(HERE.parent)}",
        f"digest sha256:{digest}",
    ]
    metrics = {name: values.get(name, 0) for name, _ in PER_LAYER}
    return metrics, len(items), failures, lines, not errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    lib = load_library()
    pool_size, trace_size = SIZES[args.workload][args.size == "smoke"]
    pool = gen.WORKLOADS[args.workload](args.seed, pool_size)
    payloads = [payload for _, payload, _ in pool]
    for payload in payloads:  # validates the inputs and warms the imports
        lib.scenario.parse_scenario(payload)

    if args.trace:
        spec = PER_LAYER
        outcome = traced(lib, pool[:trace_size], args.workload)
    else:
        spec = END_TO_END
        outcome = untraced(lib, pool, args.seconds, payloads)
    metrics, attempted, failures, lines, identities_hold = outcome

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for line in lines:
        print(line)
    for index, error in failures[:10]:
        print(f"FAILED op {index}: {error}")
    for name, unit in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    result = {
        "correct": not failures and identities_hold,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
