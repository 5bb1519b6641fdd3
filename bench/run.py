"""cubetag benchmark.

Usage:
    python3 bench/run.py --workload {cli-1024,stream-2048,desk-sweep}
                         --seed N --seconds S --trace {0,1}

BENCHMARK.json lists the workloads that gate changes; desk-sweep runs the
same way but is not gated (see workloads.py). Run from the repository root. The package is imported from ``src``.
Inputs are generated from the seed. Every op is checked against a
reference, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed. With ``--trace 1`` every public function of the traced
modules is wrapped, and the metrics are the per-layer ones built from
LAYER_FUNCTIONS and DERIVED_METRICS, including the tracing overhead: the traced ops are replayed
without wrappers and the two ``ops_per_s`` figures are compared.

Result and span files are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from inputs import MODES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-function counters reported by the traced run, as <module>.<function>.<counter>.
LAYER_FUNCTIONS = {
    "cli.main": ("calls", "busy_ms", "self_ms", "failed"),
    "cli.build_parser": ("busy_ms",),
    "keys.parse_key": ("calls", "busy_ms", "self_ms", "failed"),
    "keys.key_from_factors": ("calls", "busy_ms", "self_ms"),
    "keys.generate_key": ("calls", "busy_ms", "self_ms", "failed"),
    "keys.serialize_key": ("calls", "busy_ms"),
    "modular.is_probable_prime": ("calls", "busy_ms"),
    "modular.crt_combine": ("calls", "busy_ms", "self_ms"),
    "modular.mod_inverse": ("calls", "busy_ms"),
    "modular.ext_gcd": ("calls", "busy_ms"),
    "modular.sqrt_mod_prime": ("calls", "busy_ms"),
    "modular.is_quadratic_residue": ("calls", "busy_ms"),
    "roots.cube_roots_of_unity_prime": ("calls", "busy_ms"),
    "roots.cube_roots_of_unity_composite": ("calls", "busy_ms"),
    "roots.square_roots_of_unity_composite": ("calls", "busy_ms"),
    "cipher.encrypt": ("calls", "busy_ms", "self_ms", "failed"),
    "cipher.decrypt": ("calls", "busy_ms", "self_ms", "failed"),
    "cipher.decrypt_candidates": ("calls", "busy_ms", "self_ms"),
    "cipher.cube_root_by_exponent": ("calls", "busy_ms", "self_ms"),
    "cipher.cube_root_by_crt": ("calls", "busy_ms", "self_ms"),
    "cipher.serialize_ciphertext": ("calls", "busy_ms"),
    "cipher.parse_ciphertext": ("calls", "busy_ms"),
    "events.play_round": ("calls", "busy_ms", "self_ms", "failed"),
    "events.partition_nine_roots": ("calls", "busy_ms"),
    "prng.digit_stream": ("calls", "busy_ms", "self_ms", "failed"),
    "prng.prng_emit": ("calls", "busy_ms"),
    "prng.prng_next": ("calls", "busy_ms"),
    "prng.pack_bits_hex": ("calls", "busy_ms"),
}
_COUNTER_INDEX = {"calls": 0, "busy_ms": 1, "self_ms": 2, "failed": 3}

DERIVED_METRICS = (
    ("cli.startup_ms", "ms"),
    ("keys.prime_tests_per_key", "count"),
    ("keygen.primes_per_candidate", "ratio"),
    ("trace.ops", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
) + tuple(
    (f"{function}.ms_per_call.{mode}", "ms")
    for function in ("keys.parse_key", "cipher.decrypt")
    for mode in MODES
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for function, counters in LAYER_FUNCTIONS.items():
        for counter in counters:
            units[f"{function}.{counter}"] = "ms" if counter.endswith("_ms") else "count"
    units.update(DERIVED_METRICS)
    return units


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def span_metrics(spans, op_modes) -> dict[str, float]:
    """Ratios and per-mode means that need the call tree, from kept spans."""
    key_builds = {i for i, s in enumerate(spans) if s[0] == "keys.key_from_factors"}
    keygens = {i: op_modes.get(s[4]) for i, s in enumerate(spans) if s[0] == "keys.generate_key"}
    prime_tests = [i for i, s in enumerate(spans) if s[0] == "modular.is_probable_prime"]
    in_key_build = sum(1 for i in prime_tests if any(a in key_builds for a in _ancestors(spans, i)))
    # generate_key calls is_probable_prime directly only on prime candidates;
    # each search ends at its prime, one per factor of the key.
    candidates = sum(1 for i in prime_tests if spans[i][3] in keygens)
    primes = sum(1 if mode == "CUBIC3_PRIME" else 2 for mode in keygens.values())
    out = {
        "keys.prime_tests_per_key": in_key_build / len(key_builds) if key_builds else 0.0,
        "keygen.primes_per_candidate": primes / candidates if candidates else 0.0,
    }
    for function in ("keys.parse_key", "cipher.decrypt"):
        for mode in MODES:
            times = [s[2] - s[1] for s in spans if s[0] == function and op_modes.get(s[4]) == mode]
            out[f"{function}.ms_per_call.{mode}"] = sum(times) / len(times) / 1e6 if times else 0.0
    return out


def stamp(workload: str, seed: int, trace: int) -> dict:
    """Where and on what a result was measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            pass
    if commit is None:  # not a git checkout: identify the code by its content
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace, "commit": commit,
        "python": platform.python_version(), "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(workload, seconds: float):
    from workloads import measure

    setup_s = workload.setup()
    run = measure(workload, seconds)
    peak_rss_mb = workload.peak_rss_mb()  # before sorting latencies adds its own memory
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops_per_s(), "1/s"),
        "op_p50_ms": (run.percentile_ms(0.50), "ms"),
        "op_p90_ms": (run.percentile_ms(0.90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return run, metrics


def per_layer(workload, seconds: float, spans_path: Path):
    import tracing
    from workloads import measure

    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    workload.traced = True
    try:
        workload.setup(tracer)
        run = measure(workload, seconds, tracer)
    finally:
        tracing.uninstall(patched)
        workload.traced = False
    replay = measure(workload, seconds, limit=run.attempted)

    units = layer_metric_units()
    values = {}
    for function, counters in LAYER_FUNCTIONS.items():
        stats = tracer.stats.get(function, [0, 0, 0, 0])
        for counter in counters:
            value = stats[_COUNTER_INDEX[counter]]
            values[f"{function}.{counter}"] = value / 1e6 if counter.endswith("_ms") else value
    startups = getattr(workload, "startups_ns", [])
    values["cli.startup_ms"] = sum(startups) / len(startups) / 1e6 if startups else 0.0
    values.update(span_metrics(tracer.spans, tracer.op_modes))
    values["trace.ops"] = run.attempted
    values["trace.ops_per_s"] = run.ops_per_s()
    values["trace.untraced_ops_per_s"] = replay.ops_per_s()
    values["trace.overhead_ops_per_s"] = replay.ops_per_s() - run.ops_per_s()

    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return run, {name: (values[name], unit) for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-1024", "stream-2048", "desk-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubetag" / "__init__.py").is_file():
        print(f"bench: no cubetag package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)
    info = stamp(args.workload, args.seed, args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            run, metrics = per_layer(workload, args.seconds, OUT / f"spans-{tag}.jsonl")
        else:
            run, metrics = end_to_end(workload, args.seconds)
    finally:
        workload.close()

    for error in run.errors:
        print(f"bench: failed op {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(dict(result, stamp=info), indent=1))
    print("stamp " + json.dumps(info))
    if args.trace:
        print("note: one client in a closed loop and no layer queues work, so no wait times are reported")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
