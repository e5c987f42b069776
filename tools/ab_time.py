"""Interleaved timing of two checkouts on one benchmark workload, in both load orders.

Usage: python3 tools/ab_time.py ROOT_A ROOT_B WORKLOAD ROUNDS

Runs ROUNDS rounds twice, each time in a fresh child process: once with A
loaded first and once with B loaded first, since the ratio depends on that
order (what the first side leaves behind, such as the allocator's state,
can favour one side). A child imports ``dtrealize`` from ``ROOT_A/src`` and
``ROOT_B/src`` under the package names ``dtrealize_a`` and ``dtrealize_b``.
For each side it loads ``perfbench/workloads.py`` (read, never written)
against that side's package and builds the workload's inputs once, with
seed 1. Each round then times one whole pass over the inputs per side, A
first on even rounds and B first on odd ones, so both sides see the same
spells of host speed.

Prints, per load order, each side's median pass time, the median and
quartiles of the paired per-round ratio B/A, and in how many rounds the two
sides' outputs had equal status, diagnostics repr and certificate JSON.
When diagnostics differ, it also prints the largest absolute difference
between their float fields, or that a field other than a float differs (a
stage or status changed). The last line gives the median B/A of both
orders. The host runs between 1.0x and 1.8x of its best speed
(perfbench/README.md); a ratio measured this way sizes a gain before the
benchmark's own runs confirm it, and only when both orders show it.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import multiprocessing
import pkgutil
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SEED = 1


def load_package(root: Path, name: str):
    """``root/src/dtrealize`` and all its modules, imported as package ``name``."""
    src = root / "src" / "dtrealize"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for info in pkgutil.iter_modules([str(src)]):
        importlib.import_module(f"{name}.{info.name}")
    return package


def load_workloads(bench: Path, name: str, tag: str):
    """``bench/workloads.py`` imported as ``workloads_<tag>``, with its
    ``dtrealize`` imports bound to the package ``name``."""
    aliases = {"dtrealize" + key[len(name):]: module for key, module in sys.modules.items()
               if key == name or key.startswith(name + ".")}
    # the side's own copy of perfbench/exact.py, which workloads imports
    saved = {key: sys.modules.get(key) for key in [*aliases, "exact"]}
    sys.path.insert(0, str(bench))
    try:
        sys.modules.update(aliases)
        sys.modules.pop("exact", None)
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return workloads


def float_drift(a, b) -> float:
    """The largest absolute difference between the float fields of two
    diagnostics of one shape; inf when a field other than a float differs."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or math.isnan(a) and math.isnan(b):
            return 0.0
        d = abs(a - b)
        return math.inf if math.isnan(d) else d
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((float_drift(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, (list, tuple)) and type(a) is type(b) and len(a) == len(b):
        return max((float_drift(u, v) for u, v in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def timed_pass(side) -> tuple[float, list[tuple]]:
    """One pass over the side's inputs: seconds, and per input the status,
    diagnostics repr, certificate JSON and the diagnostics themselves."""
    workload, inputs, formats = side
    outputs = []
    start = time.perf_counter()
    for inp in inputs:
        outputs.append(workload.run(inp))
    seconds = time.perf_counter() - start
    return seconds, [(r.status, repr(r.diagnostics),
                      None if r.certificate is None else formats.certificate_to_json(r.certificate),
                      r.diagnostics)
                     for r in outputs]


def measure(roots: tuple[Path, Path], name: str, rounds: int,
            first: int) -> tuple[list[str], float]:
    """The timed rounds with side ``first`` (0 for A, 1 for B) loaded first:
    the report's lines and the median paired ratio B/A."""
    sides = [None, None]
    for i in (first, 1 - first):
        tag = "ab"[i]
        package = load_package(roots[i], f"dtrealize_{tag}")
        workloads = load_workloads(roots[i] / "perfbench", package.__name__, tag)
        workload = workloads.WORKLOADS[name]
        sides[i] = (workload, workload.build(SEED), package.formats)
    times: tuple[list[float], list[float]] = ([], [])
    equal = {"status": 0, "diagnostics": 0, "certificate": 0}
    drift = 0.0
    for round_index in range(rounds):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        outputs = [None, None]
        for i in order:
            seconds, outputs[i] = timed_pass(sides[i])
            times[i].append(seconds)
        for k, field in enumerate(equal):
            equal[field] += all(a[k] == b[k] for a, b in zip(*outputs))
        drift = max([drift] + [float_drift(a[3], b[3]) for a, b in zip(*outputs) if a[1] != b[1]])
    ratios = [b / a for a, b in zip(*times)]
    lines = [f"{name}: {rounds} rounds, {len(sides[0][1])} inputs a pass",
             f"A median pass {statistics.median(times[0]) * 1e3:.2f} ms  ({roots[0]})",
             f"B median pass {statistics.median(times[1]) * 1e3:.2f} ms  ({roots[1]})"]
    if rounds >= 2:
        q1, q2, q3 = statistics.quantiles(ratios, n=4)
        lines.append(f"B/A paired ratio: median {q2:.3f}, quartiles {q1:.3f} {q3:.3f}")
    lines += [f"{field} equal in {count} of {rounds} rounds" for field, count in equal.items()]
    if equal["diagnostics"] < rounds:
        lines.append("unequal diagnostics: " + (
            "a field other than a float differs" if drift == math.inf
            else f"largest float difference {drift:.3g}"))
    return lines, statistics.median(ratios)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots, name, rounds = (Path(argv[0]), Path(argv[1])), argv[2], int(argv[3])
    medians = []
    for first in (0, 1):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as child:
            lines, median = child.submit(measure, roots, name, rounds, first).result()
        print(f"{'AB'[first]} loaded first:")
        print("\n".join("  " + line for line in lines))
        medians.append(median)
    print(f"B/A median ratio: {medians[0]:.3f} with A loaded first, "
          f"{medians[1]:.3f} with B loaded first")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
