"""Benchmark the basketspace CLI end to end and, when traced, layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of embed-sharded, neighbors-all, eval-market, or ``all`` to run
every workload in rounds of rotating order. The benchmark builds its inputs
from the seed, then for about S seconds runs the workload's command again
and again, each time in a fresh child process (``child.py``) with one BLAS
and OpenMP thread and a fixed hash seed. Every output is checked. With
``--trace 0`` it reports the median over commands of the end-to-end
metrics; with ``--trace 1`` each round runs the command once plain and once
traced, and it reports the per-layer metrics of the traced commands. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, UNITS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
CHILD_TIMEOUT_S = 60  # a command takes about 4 s; a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SOURCE),
        PYTHONHASHSEED="0",
        # Compile from source every time rather than write caches outside the run.
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list[str], result: Path, traced: bool) -> dict | None:
    """Run one CLI command in a fresh child; its measurements, or None on failure."""
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), "1" if traced else "0", *argv],
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.exists():
        print(f"command failed ({proc.returncode}): basketspace {' '.join(argv)}\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    measured = json.loads(result.read_text(encoding="utf-8"))
    measured["setup_s"] = measured["imported"] - spawned
    return measured


def run_cli_untimed(argv: list[str]) -> None:
    """Run a CLI command for set-up; any failure ends the benchmark."""
    proc = subprocess.run(
        [sys.executable, "-m", "basketspace", *argv],
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up command failed ({proc.returncode}): "
                           f"basketspace {' '.join(argv)}\n{proc.stderr.strip()}")


class Tally:
    """Commands and checks of one workload in one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = {}  # failed check -> None, in first-seen order
        self.plain = []
        self.traced = []
        self.first_digest = None
        self.verdicts = {}  # output digest -> check verdicts
        self.absent = set()

    def record(self, measured: dict | None, output: Path, traced: bool) -> None:
        n_checks = len(self.workload.check_names) + 1
        self.attempted += 1 + n_checks
        if measured is None:
            self.failed += 1 + n_checks
            return
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.workload.check(output)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.verdicts[digest] = [(name, False, f"unreadable output: {exc!r}")
                                         for name in self.workload.check_names]
        self.first_digest = self.first_digest or digest
        verdicts = self.verdicts[digest] + [
            ("same_bytes", digest == self.first_digest, "output identical to the run's first")
        ]
        for name, ok, detail in verdicts:
            if not ok:
                self.failed += 1
                self.wrong[f"{self.workload.name} {name}: {detail}"] = None
        (self.traced if traced else self.plain).append(measured)
        if traced:
            self.absent.update(measured["absent"])

    def metrics(self, trace: bool) -> dict:
        if not self.plain or (trace and not self.traced):
            raise RuntimeError(f"{self.workload.name}: no command succeeded")
        median = statistics.median
        if not trace:
            return {
                name: {"value": median(m[name] for m in self.plain), "unit": unit}
                for name, unit in END_TO_END.items()
            }
        per_command = [layer_metrics(m["spans"]) for m in self.traced]
        out = {
            name: {"value": median(r[name] for r in per_command), "unit": UNITS[kind]}
            for metrics in LAYERS.values()
            for name, kind in metrics.items()
        }
        overhead = median(m["wall_s"] for m in self.traced) - median(m["wall_s"] for m in self.plain)
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "basketspace" / "cli.py").is_file():
        print(f"error: no basketspace sources under {SOURCE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # Warms the file cache before timing.
        subprocess.run([sys.executable, "-c", "import basketspace.cli"],
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        tallies = []
        for name in names:
            workload = WORKLOADS[name]()
            workload.prepare(workdir, args.seed, run_cli_untimed)
            tallies.append(Tally(workload))
        started = time.monotonic()
        rounds = 0
        while rounds == 0 or time.monotonic() - started < args.seconds:
            # Rotate the order so that host drift falls on every workload alike.
            shift = rounds % len(tallies)
            for tally in tallies[shift:] + tallies[:shift]:
                modes = [False, True] if args.trace else [False]
                if rounds % 2:
                    modes.reverse()
                for traced in modes:
                    output = workdir / tally.workload.output_name
                    argv = tally.workload.argv(output)
                    measured = run_child(argv, workdir / "child.json", traced)
                    tally.record(measured, output, traced)
            rounds += 1
        result = {
            "correct": not any(t.wrong for t in tallies),
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": {},
        }
        for tally in tallies:
            metrics = tally.metrics(bool(args.trace))
            prefix = f"{tally.workload.name}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
            shown = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in metrics.items())
            traced = f" + {len(tally.traced)} traced" if args.trace else ""
            print(f"{tally.workload.name}: {len(tally.plain)}{traced} commands, "
                  f"attempted {tally.attempted}, failed {tally.failed}  {shown}")
            for line in tally.wrong:
                print(f"CHECK FAILED {line}")
            if tally.absent:
                print(f"{tally.workload.name}: absent layers: {', '.join(sorted(tally.absent))}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
