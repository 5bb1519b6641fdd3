"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

They check that wrong or failing ops are counted as failed, that the
tracer wraps a function everywhere it is bound, and that the metric names
the benchmark prints are the ones BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cubetag  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    workload = workloads.DeskWorkload(seed=7)
    workload.setup()
    yield workload
    workload.close()


def test_desk_ops_pass_on_the_package(desk):
    result = workloads.measure(desk, seconds=60, limit=500)
    assert (result.attempted, result.failed) == (500, 0)


def test_corrupted_result_counts_as_failed(desk, monkeypatch):
    original = cubetag.decrypt

    def corrupt_odd(ct, key):
        m = original(ct, key)
        return m + 1 if m % 2 else m

    monkeypatch.setattr(cubetag, "decrypt", corrupt_odd)
    result = workloads.measure(desk, seconds=60, limit=500)
    monkeypatch.undo()
    expected = sum(op.run() % 2 for op in islice(chain.from_iterable(desk.batches()), 500))
    assert result.attempted == 500
    assert 0 < result.failed == expected


def test_raising_op_counts_as_failed(desk, monkeypatch):
    def broken(m, key):
        raise cubetag.InvalidMessageError("injected")

    monkeypatch.setattr(cubetag, "encrypt", broken)
    result = workloads.measure(desk, seconds=60, limit=100)
    assert (result.attempted, result.failed) == (100, 100)


def test_stream_checks_accept_the_package_and_reject_a_corrupted_stream(monkeypatch):
    workload = workloads.StreamWorkload(seed=7)
    try:
        mode = "CUBIC9_COMPOSITE"
        ref = workload.ref[mode]
        workload.keys[mode] = cubetag.key_from_factors(cubetag.KeyMode[mode], ref.p, ref.q)
        rng = workloads.random.Random(0)
        ops = [workload._op(kind, mode, rng) for kind in ("roundtrip", "digits", "game")]
        assert all(op.check(op.run()) for op in ops)

        original = cubetag.digit_stream
        monkeypatch.setattr(cubetag, "digit_stream", lambda *a: [1 - d for d in original(*a)])
        assert not ops[1].check(ops[1].run())
    finally:
        workload.close()


def test_cli_checks_reject_wrong_output():
    workload = workloads.CliWorkload(seed=7)
    try:
        ops = next(workload.batches())
        decrypt = next(op for op in ops if op.kind == "decrypt")
        roots = next(op for op in ops if op.kind == "roots")
        wrong = subprocess.CompletedProcess([], 0, stdout="12345\n", stderr="")
        assert not decrypt.check(wrong)
        assert not roots.check(wrong)
        assert not decrypt.check(subprocess.CompletedProcess([], 1, stdout="", stderr="boom"))
    finally:
        workload.close()


def test_install_wraps_every_binding_and_uninstall_restores():
    import cubetag.keys
    import cubetag.modular
    import cubetag.roots

    original = cubetag.modular.is_probable_prime
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        for module in (cubetag.keys, cubetag.roots, cubetag.modular, cubetag):
            assert module.is_probable_prime is not original
        cubetag.key_from_factors(cubetag.KeyMode.CUBIC9_COMPOSITE, 7, 13)
    finally:
        tracing.uninstall(patched)
    assert cubetag.keys.is_probable_prime is original
    calls, busy, self_ns, failed = tracer.stats["modular.is_probable_prime"]
    assert calls == 6 and failed == 0 and 0 < self_ns <= busy
    names = {span[0] for span in tracer.spans}
    assert {"keys.key_from_factors", "roots.cube_roots_of_unity_composite"} <= names


def test_declared_metrics_match_the_printed_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(run.layer_metric_units())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.layer_metric_units()
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    links = json.loads((BENCH / "links.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for link in links["links"] + links["steady"]:
        assert set(link["layer"]) <= set(run.layer_metric_units())
        assert set(link["moves"]) <= end_to_end
        assert link["on"] in workloads.WORKLOADS
