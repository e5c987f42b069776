"""How often ``realize`` refutes a random stacked triangulation, and what the reading costs.

Usage: python3 tools/refutation_survey.py [ROOT]

Imports ``dtrealize`` from ``ROOT/src`` (default: this checkout) and runs
``realize`` with no budget on ``stacked_triangulation(n, s)`` for n = 10, 20,
30 and 50 and s = 0..19. Prints one row per n: how many calls were
``REALIZED``; how many carry a tough set found at face 0 and at a later
face; how many ended ``UNKNOWN`` without one; the total time spent reading
duals (``angles.dual_readings`` and ``tough_set_near``, timed by wrappers);
the most one call spent reading; the most one ``REALIZED`` call spent
reading; and the total time spent in ``angles.solve_angle_lp``, less the
reading a decision stop does inside it. Every reported set is checked again
here by ``is_tough_set``. It takes about a minute.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SIZES = (10, 20, 30, 50)
SEEDS = range(20)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str((root / "src").resolve()))
    from dtrealize import angles, realizer
    from dtrealize.instances import stacked_triangulation
    from dtrealize.plane_graph import is_tough_set

    reading, solving = [0.0], [0.0]

    def timed(function, spent):
        def wrapper(*args, **kwargs):
            t0, read = time.perf_counter(), reading[0]
            try:
                return function(*args, **kwargs)
            finally:
                # less the reading done inside the call, counted once, as reading
                spent[0] += time.perf_counter() - t0 - (reading[0] - read)
        return wrapper

    angles.dual_readings = timed(angles.dual_readings, reading)
    realizer.tough_set_near = timed(realizer.tough_set_near, reading)
    angles.solve_angle_lp = timed(angles.solve_angle_lp, solving)
    print("n   realized  refuted@0  refuted@later  unrefuted  read_total_s  "
          "read_max_s  read_max_realized_s  lp_s")
    for n in SIZES:
        realized = at_first = later = unrefuted = 0
        total = most = most_realized = 0.0
        solving[0] = 0.0
        for s in SEEDS:
            G = stacked_triangulation(n, s)
            reading[0] = 0.0
            res = realizer.realize(G)
            total += reading[0]
            most = max(most, reading[0])
            found = [k for k, d in enumerate(res.diagnostics) if "tough_set" in d]
            if res.status == "REALIZED":
                realized += 1
                most_realized = max(most_realized, reading[0])
            elif found:
                if not is_tough_set(G, res.diagnostics[found[0]]["tough_set"]):
                    print(f"error: n = {n}, seed {s}: a reported set fails the check")
                    return 1
                at_first += found[0] == 0
                later += found[0] > 0
            else:
                unrefuted += 1
        print(f"{n:<3} {realized:>8}  {at_first:>9}  {later:>13}  {unrefuted:>9}  "
              f"{total:>12.3f}  {most:>10.3f}  {most_realized:>19.3f}  {solving[0]:>4.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
