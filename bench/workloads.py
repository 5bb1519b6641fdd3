"""The benchmark's workloads and the closed loop that drives them.

Each workload is one client in a closed loop: the next op starts only after
the previous one has finished and been checked. No layer queues work, so no
wait times exist to report.

* cli-1024: per-mode command-line sessions, one fresh ``python -m cubetag``
  process per op, one child at a time. Every process re-parses its key.
* stream-2048: a library user who loads four 2048-bit keys once, then runs
  round trips, digit streams and game rounds against them.
* desk-sweep: every coprime message of every valid key with n below
  DESK_LIMIT, as in the slow desk-scale test, visited in a seeded order.
  Its tiny-integer ops are interpreter-bound, and on a shared 2-core
  machine their speed drifts by 10-15% between runs, so BENCHMARK.json does
  not gate on it; it stays runnable for traced per-layer runs.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from functools import partial
from itertools import accumulate
from pathlib import Path

import cubetag
import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CLI_BITS = 1024
STREAM_BITS = 2048
DESK_LIMIT = 2500
DESK_SAMPLE_RATE = 1 / 256  # share of desk-sweep ops whose spans are kept
SETUP_REPEATS = {"cli-1024": 5, "stream-2048": 3, "desk-sweep": 5}

# stream-2048 op mix per block of 20. The latency bands are: CUBIC9 round
# trips and game rounds fastest (~13 ms), square round trips next (~34 ms),
# then digit streams and CUBIC3 round trips (~39 ms). Unequal weights put
# that last band at 30-100% of ops, so the median and the 90th percentile
# both sit well inside it, away from a band boundary.
STREAM_BLOCK = (
    [("roundtrip", "CUBIC3_COMPOSITE")] * 6
    + [("roundtrip", "CUBIC3_PRIME")] * 5
    + [("digits", "CUBIC9_COMPOSITE")] * 3
    + [("roundtrip", "SQUARE_COMPOSITE")] * 2
    + [("roundtrip", "CUBIC9_COMPOSITE")] * 2
    + [("game", "CUBIC9_COMPOSITE")] * 2
)

CLI_MODE_NAMES = {
    "CUBIC3_PRIME": "cubic3-prime",
    "CUBIC3_COMPOSITE": "cubic3",
    "CUBIC9_COMPOSITE": "cubic9",
    "SQUARE_COMPOSITE": "square",
}


class Op:
    """One unit of load: `run()` does the work that is timed, `check(out)`
    compares its result with the reference afterwards."""

    __slots__ = ("kind", "mode", "run", "check")

    def __init__(self, kind, mode, run, check):
        self.kind, self.mode, self.run, self.check = kind, mode, run, check


class Run:
    """What one pass of the closed loop measured.

    Latencies beyond LATENCY_SAMPLE ops are kept by reservoir sampling, so
    the harness's own memory, which peak_rss_mb includes, does not grow
    with the op count.
    """

    LATENCY_SAMPLE = 100_000

    def __init__(self):
        self.latencies_ns = array("q")
        self.attempted = 0
        self.busy_ns = 0
        self.failed = 0
        self.errors: list[str] = []
        self._reservoir = random.Random(0)

    def add(self, latency_ns: int) -> None:
        self.attempted += 1
        self.busy_ns += latency_ns
        if len(self.latencies_ns) < self.LATENCY_SAMPLE:
            self.latencies_ns.append(latency_ns)
        else:
            slot = self._reservoir.randrange(self.attempted)
            if slot < self.LATENCY_SAMPLE:
                self.latencies_ns[slot] = latency_ns

    def ops_per_s(self) -> float:
        """Ops per second of time spent inside ops (harness and checks excluded)."""
        return self.attempted / (self.busy_ns / 1e9)

    def percentile_ms(self, share: float) -> float:
        ordered = sorted(self.latencies_ns)
        position = share * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return (ordered[low] + (ordered[high] - ordered[low]) * (position - low)) / 1e6


def measure(workload, seconds: float, tracer=None, limit: int | None = None) -> Run:
    """Drive the workload's ops until about `seconds` have passed, stopping
    at the batch boundary nearest to that time, or after exactly `limit` ops.

    Ops that raise or whose output differs from the reference count as failed.
    """
    run = Run()
    clock = time.perf_counter_ns
    start = time.perf_counter()
    op_id = 0
    for batch_count, batch in enumerate(workload.batches(), 1):
        for op in batch:
            root = tracer.begin_op(op_id, op.kind, op.mode, workload.record(op_id)) if tracer else -1
            error = None
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                error = exc
            t1 = clock()
            if tracer:
                tracer.end_op(root)
                workload.collect(tracer, root, op_id, t1 - t0)
            if error is None:
                try:
                    ok = op.check(out)
                except Exception as exc:  # malformed output is a failed check
                    ok, error = False, exc
            else:
                ok = False
            run.add(t1 - t0)
            if not ok:
                run.failed += 1
                if len(run.errors) < 5:
                    run.errors.append(f"{op.kind}/{op.mode}: {error!r}" if error else f"{op.kind}/{op.mode}: wrong output")
            op_id += 1
            if limit is not None and op_id >= limit:
                return run
        if limit is None:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / batch_count / 2 >= seconds:
                return run
    return run


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.traced = False
        self.work = OUT / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def record(self, op_id) -> bool:
        """Whether spans are kept for this op."""
        return True

    def collect(self, tracer, root: int, op_id, latency_ns: int) -> None:
        """Hook run after each traced op."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timed_setup(self, once) -> float:
        """Median wall time of `once(rep)` over this workload's set-up repeats."""
        times = []
        for rep in range(SETUP_REPEATS[self.name]):
            start = time.perf_counter()
            once(rep)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class CliWorkload(Workload):
    name = "cli-1024"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = inputs.pooled_key_set(CLI_BITS, seed, OUT)
        for mode, key in self.keys.items():
            (self.work / f"{mode}.key").write_text(key.text())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.startups_ns: list[int] = []

    def setup(self, tracer=None) -> float:
        """Fresh-process start-up: the wall time of `cubetag --version`."""
        def once(rep):
            done = subprocess.run(
                [sys.executable, "-m", "cubetag", "--version"],
                cwd=self.work, env=self.env, capture_output=True, timeout=60,
            )
            if done.returncode != 0:
                raise RuntimeError(f"cubetag --version failed: {done.stderr!r}")
        return self.timed_setup(once)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _command(self, *args: str):
        def run():
            if self.traced:
                prefix = [sys.executable, str(BENCH / "launch.py"), str(self.work / "spans.json")]
            else:
                prefix = [sys.executable, "-m", "cubetag"]
            return subprocess.run(
                prefix + list(args), cwd=self.work, env=self.env,
                capture_output=True, text=True, timeout=120,
            )
        return run

    def collect(self, tracer, root, op_id, latency_ns):
        path = self.work / "spans.json"
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:  # the child died before writing; the op fails its check
            return
        path.unlink()
        self.startups_ns.append(latency_ns - data["stats"].get("cli.main", [0, 0])[1])
        tracer.merge(data, root, op_id)

    def _session(self, mode: str, rng: random.Random) -> list[Op]:
        key = self.keys[mode]
        key_file = f"{mode}.key"
        ops = []

        def ok(check):
            return lambda done: done.returncode == 0 and check(done)

        generated = self.work / f"kg-{mode}.key"

        def keygen_ok(done):
            text = generated.read_text()
            return reference.key_file_ok(text, mode, CLI_BITS) and f"n={done.stdout.strip()}\n" in text

        ops.append(Op("keygen", mode, self._command(
            "keygen", "--mode", CLI_MODE_NAMES[mode], "--bits", str(CLI_BITS),
            "--seed", str(rng.getrandbits(32)), "--out", generated.name,
        ), ok(keygen_ok)))
        messages = [inputs.coprime_below(key.n, rng) for _ in range(3)]
        for i, m in enumerate(messages):
            ct = self.work / f"{mode}-ct{i}"
            ops.append(Op("encrypt", mode, self._command(
                "encrypt", "--key", key_file, "--message", str(m), "--out", ct.name,
            ), ok(lambda done, ct=ct, m=m: ct.read_text() == reference.ciphertext_text(m, key))))
        for i, m in enumerate(messages):
            ops.append(Op("decrypt", mode, self._command(
                "decrypt", "--key", key_file, "--in", f"{mode}-ct{i}",
            ), ok(lambda done, m=m: done.stdout == f"{m}\n")))
        ops.append(Op("roots", mode, self._command("roots", "--key", key_file),
                      ok(lambda done: reference.roots_ok([int(v) for v in done.stdout.split()], key))))
        if mode == "CUBIC9_COMPOSITE":
            s = inputs.coprime_below(key.n, rng)
            ops.append(Op("rand", mode, self._command(
                "rand", "--key", key_file, "--seed", str(s), "--radix", "2", "--count", "4096", "--hex",
            ), ok(lambda done: done.stdout == reference.bits_hex(reference.digits(key.n, s, 2, 4096)) + "\n")))
            m, alice, bob = inputs.coprime_below(key.n, rng), rng.randint(1, 4), rng.randint(1, 4)

            def game_ok(done):
                fields = dict(line.split("=", 1) for line in done.stdout.splitlines())
                return reference.game_ok(
                    m, key.n, alice, bob, int(fields["c"]), int(fields["recovered"]),
                    fields["outcome"] == "success",
                )

            ops.append(Op("game", mode, self._command(
                "game", "--key", key_file, "--message", str(m), "--alice", str(alice), "--bob", str(bob),
            ), ok(game_ok)))
        return ops

    def batches(self):
        """One batch is a round of four sessions, one per mode, in seeded order."""
        rng = random.Random(f"cli-{self.seed}")
        while True:
            modes = list(inputs.MODES)
            rng.shuffle(modes)
            yield [op for mode in modes for op in self._session(mode, rng)]


class StreamWorkload(Workload):
    name = "stream-2048"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ref = inputs.pooled_key_set(STREAM_BITS, seed, OUT)
        for mode, key in self.ref.items():
            (self.work / f"{mode}.key").write_text(key.text())
        self.keys: dict = {}

    def setup(self, tracer=None) -> float:
        """Read and parse the four key files."""
        def once(rep):
            for mode in inputs.MODES:
                with tracer.op(f"setup{rep}.{mode}", "setup", mode) if tracer else nullcontext():
                    self.keys[mode] = cubetag.parse_key((self.work / f"{mode}.key").read_text())
        return self.timed_setup(once)

    def _op(self, kind: str, mode: str, rng: random.Random) -> Op:
        key, ref = self.keys[mode], self.ref[mode]
        if kind == "roundtrip":
            m = inputs.coprime_below(ref.n, rng)

            def run():
                text = cubetag.serialize_ciphertext(cubetag.encrypt(m, key))
                return text, cubetag.decrypt(cubetag.parse_ciphertext(text, key.mode), key)
            return Op(kind, mode, run, lambda out: out == (reference.ciphertext_text(m, ref), m))
        if kind == "digits":
            s = inputs.coprime_below(ref.n, rng)
            return Op(kind, mode, lambda: cubetag.digit_stream(key, s, 2, 1000),
                      lambda out: out == reference.digits(ref.n, s, 2, 1000))
        m, alice, bob = inputs.coprime_below(ref.n, rng), rng.randint(1, 4), rng.randint(1, 4)
        return Op(kind, mode, lambda: cubetag.play_round(key, m, alice, bob),
                  lambda r: reference.game_ok(m, ref.n, alice, bob, r.c, r.recovered, r.success))

    def batches(self):
        """One batch is STREAM_BLOCK in seeded order, so every prefix of the
        run holds the same mix."""
        rng = random.Random(f"stream-{self.seed}")
        while True:
            block = list(STREAM_BLOCK)
            rng.shuffle(block)
            yield [self._op(kind, mode, rng) for kind, mode in block]


def _desk_round_trip(m, key):
    return cubetag.decrypt(cubetag.encrypt(m, key), key)


class DeskWorkload(Workload):
    name = "desk-sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = inputs.desk_specs(DESK_LIMIT)
        self.keys: list = []
        self.sample = random.Random(f"desk-sample-{seed}")

    def setup(self, tracer=None) -> float:
        """Build every desk key from its factors."""
        def once(rep):
            keys = []
            for i, (mode, p, q) in enumerate(self.specs):
                with tracer.op(f"setup{rep}.{i}", "setup", mode) if tracer else nullcontext():
                    keys.append(cubetag.key_from_factors(cubetag.KeyMode[mode], p, q))
            self.keys = keys
        return self.timed_setup(once)

    def record(self, op_id) -> bool:
        return self.sample.random() < DESK_SAMPLE_RATE

    def batches(self):
        """Visit the (key, message) grid in the order i -> (a*i + b) mod N,
        a permutation for a coprime to N, so every prefix of the run is an
        even sample of the whole sweep. Messages sharing a factor with n are
        skipped, as the sweep test skips them."""
        offsets = list(accumulate((key.n - 1 for key in self.keys), initial=0))
        total = offsets.pop()
        rng = random.Random(f"desk-{self.seed}")
        a = rng.randrange(1, total)
        while math.gcd(a, total) != 1:
            a += 1
        b = rng.randrange(total)
        i = 0
        while True:
            batch = []
            while len(batch) < 64:
                j = (a * i + b) % total
                i += 1
                k = bisect.bisect_right(offsets, j) - 1
                key = self.keys[k]
                m = j - offsets[k] + 1
                if math.gcd(m, key.n) == 1:
                    batch.append(Op("roundtrip", key.mode.value, partial(_desk_round_trip, m, key), partial(operator.eq, m)))
            yield batch


WORKLOADS = {w.name: w for w in (CliWorkload, StreamWorkload, DeskWorkload)}
