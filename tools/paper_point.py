"""The side runner behind the ``tools/bench_*.py`` paper-scale points.

Each tool measures one layer over a ``perfbench/gen.py`` input directory.
``main`` runs that measurement once per side (a label and a ``src``
directory, so a parent and a change can be compared) and repetition, each
in a fresh interpreter, the sides alternating which goes first, and writes
one JSON point: the machine, the method, and per side the median and runs
of every float and the one value of everything else (a value that differs
between runs is an error). It is a one-shot measurement, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def field(path: str, name: str) -> str:
    """The value of the first ``name:`` line of a /proc file."""
    with open(path, encoding="ascii", errors="replace") as lines:
        return next(line.split(":", 1)[1].strip() for line in lines if line.startswith(name))


def rss_mb() -> float:
    return int(field("/proc/self/status", "VmRSS:").split()[0]) / 1024


def p50_ms(calls) -> float:
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def _machine() -> dict:
    import numpy

    cpu = field("/proc/cpuinfo", "model name")
    memory_kb = int(field("/proc/meminfo", "MemTotal:").split()[0])

    return {"nproc": os.cpu_count(), "cpu": cpu, "memory_mb": memory_kb // 1024,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "os": f"{platform.system()} {platform.release()}"}


def main(script: str, label: str, what: str, method: list[str], measure,
         options=()) -> None:
    """The command line of the tool at ``script``: ``measure(args)`` is one
    side's figures, measured in this process with that side's ``ragmt``
    importable; ``options`` are the tool's own ``(flag, keyword arguments)``."""
    parser = argparse.ArgumentParser(description=what)
    parser.add_argument("--inputs", required=True, help="a perfbench/gen.py output directory")
    parser.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                        help="a side to measure: its label and its src directory")
    parser.add_argument("--reps", type=int, default=3)
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--out")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args)))
        return

    sides = dict(side.split("=", 1) for side in args.side)
    runs: dict[str, list[dict]] = {name: [] for name in sides}
    for rep in range(args.reps):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for name in order:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(sides[name]))
            done = subprocess.run([sys.executable, script, *argv, "--child"],
                                  env=env, capture_output=True, text=True, check=True)
            runs[name].append(json.loads(done.stdout))
            print(name, runs[name][-1], file=sys.stderr)

    point = {"label": label, "what": what, "machine": _machine(), "method": method}
    for name, side in runs.items():
        summary = {}
        for metric, value in side[0].items():
            values = [run[metric] for run in side]
            if isinstance(value, float):
                summary[metric] = {"median": round(statistics.median(values), 4),
                                   "runs": [round(v, 4) for v in values]}
            elif len(set(values)) == 1:
                summary[metric] = value
            else:
                raise RuntimeError(f"{name}: {metric} differs between runs: {values}")
        point[name] = summary
    text = json.dumps(point, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text + "\n")
    print(text)
