"""Run one basketspace CLI command in this process and record its cost.

Usage: python3 child.py RESULT_JSON TRACE(0|1) CLI_ARG...

The first statement imports ``basketspace.cli``, so the parent, which notes
the monotonic clock just before it starts this process, can time
interpreter start plus import. The command then runs once through
``basketspace.cli.main``; wall time, CPU time and peak resident memory go to
RESULT_JSON.

With TRACE=1 the public functions listed in ``layers.py`` are wrapped,
from outside, in each basketspace module namespace that binds them (``cli``
and ``evaluation`` import ``train`` by name, for example). Each call records
a span (layer, start, end, parent span, count) in memory; the spans are
written to RESULT_JSON at exit. A function that no longer exists is listed
as absent instead of failing the run.
"""

import time

import basketspace.cli

IMPORTED = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from layers import LAYERS  # noqa: E402


def _tell(args):
    """Position of the stream passed last, or None if there is none."""
    try:
        return args[-1].tell()
    except (AttributeError, IndexError, OSError, ValueError):
        return None


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, count]
        self.stack = []
        self.absent = []

    def wrap(self, layer, fn):
        spans, stack = self.spans, self.stack
        kinds = set(LAYERS[layer].values())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            before = _tell(args) if "MB" in kinds else None
            span = [layer, time.perf_counter(), 0.0, parent, 0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if "rows" in kinds and args:
                    span[4] = len(args[0])
                elif before is not None:
                    after = _tell(args)
                    span[4] = 0 if after is None else after - before

        return traced

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "basketspace" or name.startswith("basketspace."))
        ]
        for name in LAYERS:
            # Only cli.main is a layer; other modules' `main` names are not.
            scope = [basketspace.cli] if name == "main" else modules
            originals = {}
            for module in scope:
                fn = module.__dict__.get(name)
                if isinstance(fn, types.FunctionType):
                    originals.setdefault(id(fn), (fn, []))[1].append(module)
            if not originals:
                self.absent.append(name)
            for fn, owners in originals.values():
                wrapped = self.wrap(name, fn)
                for module in owners:
                    setattr(module, name, wrapped)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Read from VmHWM rather than ``ru_maxrss``: Linux carries the parent's
    peak over into ``ru_maxrss`` across fork and exec, so a large parent
    would show up as the child's peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = basketspace.cli.main(argv)
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "imported": IMPORTED,
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as out:
        json.dump(result, out)
    os.replace(tmp, result_path)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
