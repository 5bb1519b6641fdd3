"""Interleaved wall times of `cubetag` processes from two source trees.

Usage: python3 tools/cli_op_times.py PARENT_SRC CHANGE_SRC OUT.json [--commits PARENT CHANGE]

Each row is one command: `python -c pass`, `import cubetag.cli`, `--version`,
and keygen, encrypt, decrypt and roots for a 1024-bit key of each mode (rand
and game on the nine-root key), as in the cli-1024 benchmark workload, and
roots for a 2048-bit key of each mode, whose time is mostly the key load, at
the size of the stream-2048 workload's keys. The keys are generated once, with
CHANGE_SRC, and both trees read copies of the same files. Each of
12 repetitions runs each row once per tree, the order of the two trees
alternating, with PYTHONDONTWRITEBYTECODE=1 so that each process compiles the
package as a fresh checkout does. Both trees must print the same bytes and
write the same files; a difference stops the run. OUT holds per-row medians
and quartiles in ms, how often the change was faster, and the layer
``cli.startup_ms``: a process's time before ``cli.main`` starts, the median of
the ``import cubetag.cli`` row.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODES = {"cubic3-prime": 4, "cubic3": 4, "cubic9": 5, "square": 4}  # CLI mode name: --seed
BITS, ROOTS_BITS, REPS = 1024, 2048, 12


def _commands() -> dict[str, list[str]]:
    rows = {"python -c pass": ["-c", "pass"], "import cubetag.cli": ["-c", "import cubetag.cli"],
            "--version": ["-m", "cubetag", "--version"]}
    for mode, seed in MODES.items():
        key = ["--key", f"{mode}.key"]
        rows[f"{mode} keygen"] = ["-m", "cubetag", "keygen", "--mode", mode, "--bits", str(BITS),
                                  "--seed", str(seed + 100), "--out", f"kg-{mode}.key"]
        rows[f"{mode} encrypt"] = ["-m", "cubetag", "encrypt", *key, "--message", "12345",
                                   "--out", f"{mode}.ct"]
        rows[f"{mode} decrypt"] = ["-m", "cubetag", "decrypt", *key, "--in", f"{mode}.ct"]
        rows[f"{mode} roots"] = ["-m", "cubetag", "roots", *key]
        rows[f"{mode} roots {ROOTS_BITS}"] = ["-m", "cubetag", "roots", "--key",
                                              f"{mode}-{ROOTS_BITS}.key"]
    rows["cubic9 rand"] = ["-m", "cubetag", "rand", "--key", "cubic9.key", "--seed", "12345",
                           "--radix", "2", "--count", "4096", "--hex"]
    rows["cubic9 game"] = ["-m", "cubetag", "game", "--key", "cubic9.key", "--message", "12345",
                           "--alice", "2", "--bob", "2"]
    return rows


def _run(src: Path, work: Path, args: list[str]) -> tuple[float, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          check=True)
    elapsed = (time.perf_counter() - start) * 1000
    files = b"".join(p.name.encode() + p.read_bytes() for p in sorted(work.iterdir()))
    return elapsed, done.stdout + done.stderr + files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--commits", nargs=2, default=("?", "?"), metavar=("PARENT", "CHANGE"),
                        help="the commits the two trees hold, stamped into OUT")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = _commands()
    times = {name: {side: [] for side in trees} for name in rows}
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp, side) for side in trees}
        keys = Path(tmp, "keys")
        keys.mkdir()
        for mode, seed in MODES.items():
            for bits, name in ((BITS, f"{mode}.key"), (ROOTS_BITS, f"{mode}-{ROOTS_BITS}.key")):
                _run(trees["change"], keys, ["-m", "cubetag", "keygen", "--mode", mode, "--bits",
                                             str(bits), "--seed", str(seed), "--out", name])
        for path in work.values():
            shutil.copytree(keys, path)
        for rep in range(REPS):
            for name, command in rows.items():
                outputs = {}
                for side in (trees if rep % 2 == 0 else reversed(trees)):
                    elapsed, outputs[side] = _run(trees[side], work[side], command)
                    times[name][side].append(elapsed)
                if outputs["parent"] != outputs["change"]:
                    raise SystemExit(f"outputs differ for {name!r}")
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    report = {"commits": dict(zip(trees, args.commits)), "python": platform.python_version(),
              "cpu": cpu, "cpus": os.cpu_count(), "bits": BITS, "roots_bits": ROOTS_BITS,
              "reps": REPS, "env": "PYTHONDONTWRITEBYTECODE=1", "unit": "ms", "rows": {}}
    for name, sides in times.items():
        row = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            row[side] = {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}
        faster = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        row["change_faster_in"] = f"{faster}/{REPS}"
        report["rows"][name] = row
    report["cli.startup_ms"] = {side: report["rows"]["import cubetag.cli"][side]["median"]
                                for side in trees}
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
