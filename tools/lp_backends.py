"""Time both angle-LP backends on one corpus of face-0 LPs and print where the eliminated one wins.

Usage: python3 tools/lp_backends.py [ROOT]

Imports ``dtrealize`` from ``ROOT/src`` (default: this checkout) with every
native thread pool pinned to one thread, as the benchmark runs. The corpus
is face 0's angle LP of ``random_instance(n, s)`` for n = 8..13 and
s = 1000..1005, of ``stacked_triangulation(n, s)`` for n = 9..12 and
s = 0..1, and of the benchmark's Kleetope (``perfbench/workloads.py``,
seed 0). Each LP is cut once. A solve then builds one backend from the
cut, ``angles._Dense`` or ``angles._Eliminated``, and solves the LP to
``LP_TOL`` with ``angles._mehrotra``; a timing is the mean of a batch of 10
solves. Each backend is timed 7 times per LP, the two alternating, and the
best timing counts: a single solve of about 1 ms is too short to time
against the host's jitter.

Prints one line per LP, by size: its rows m, the best dense and eliminated
timings in ms, eliminated / dense, and the graph. The last line gives the
smallest m from which the eliminated backend wins on every LP of the
corpus with at least m rows, the value for ``angles.ELIMINATED_MIN_ROWS``,
or ``none`` if it loses on the largest. It takes a few seconds.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REPEATS = 7
BATCH = 10


def corpus(instances, kleetope):
    """(name, graph) for each LP of the corpus."""
    for n in range(8, 14):
        for s in range(1000, 1006):
            yield f"random_instance({n}, {s})", instances.random_instance(n, s)[1]
    for n in range(9, 13):
        for s in range(2):
            yield f"stacked_triangulation({n}, {s})", instances.stacked_triangulation(n, s)
    yield "benchmark Kleetope", kleetope


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    # read when numpy is first imported, below
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str((root / "src").resolve()))
    sys.path.insert(0, str((root / "perfbench").resolve()))
    from dtrealize import angles, instances
    from dtrealize.plane_graph import candidate_outer_faces
    import workloads

    backends = (lambda rows, kept, a, tau, split: angles._Dense(rows, kept, a, tau),
                angles._Eliminated)
    results = []
    for name, G in corpus(instances, workloads.bipyramid_kleetope(0)[0]):
        rows, kept, a, b, tau, split, _ = angles._cut(angles.lp_table(G),
                                                      candidate_outer_faces(G)[0])
        best = [float("inf")] * 2
        for repeat in range(REPEATS):
            for k in (repeat % 2, 1 - repeat % 2):
                t0 = time.perf_counter()
                for _ in range(BATCH):
                    angles._mehrotra(backends[k](rows, kept, a, tau, split), b, tau)
                best[k] = min(best[k], (time.perf_counter() - t0) / BATCH)
        results.append((len(b), *best, name))
    results.sort(key=lambda result: result[0])
    print("m    dense_ms  eliminated_ms  ratio  graph")
    for m, dense, eliminated, name in results:
        print(f"{m:<4} {dense * 1e3:8.3f}  {eliminated * 1e3:13.3f}  {eliminated / dense:5.2f}  {name}")
    # the smallest size above every LP of the corpus that is not faster eliminated
    lost = max((m for m, dense, eliminated, _ in results if eliminated >= dense), default=0)
    crossover = min((m for m, *_ in results if m > lost), default="none")
    print(f"eliminated wins from m = {crossover}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
