"""Time to a certified verdict: dtrealize's benchmark.

    python3 perfbench/run.py --workload realize-mix --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. One run builds the workload's inputs from --seed, then runs
whole passes over them with tracing off for as long as another pass still
ends within --seconds (at least one pass), checking every output outside the
timed region. With --trace 1 it then makes one more pass with the per-layer
wrappers of tracing.py installed.

wall_s sums, over the inputs, each input's median time across the passes.
setup_s is the median of five to nine fresh processes (--setup-only), timed
before the first pass and after each pass.

Every output is judged independently (workloads.py, exact.py). The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A full record of the run,
spans included, is written to perfbench/out/. The exit code is 0 when
every output was correct, 1 when one was not and 2 when the run could not
start.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

# Pin native thread pools before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("realize-mix", "verify-large", "unrealizable")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = (5, 9)      # fresh-process set-ups timed per run: at least, at most


class InputTimeout(Exception):
    """An input ran past its workload's time limit and was abandoned."""


def _on_alarm(signum, frame):
    raise InputTimeout()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the seconds since start-up and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def sample_setup(args) -> float:
    """Seconds a fresh process takes from start-up until its inputs are ready."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def timed_pass(workload, inputs, tracer=None):
    """Run every input once; return the pass's wall time and per-input
    (seconds, output or the exception it raised)."""
    results = []
    start = time.perf_counter()
    for inp in inputs:
        if tracer is not None:
            tracer.input = inp.name
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, workload.time_limit)
        try:
            out = workload.run(inp)
        except Exception as e:          # judged as a failed operation below
            out = e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append((time.perf_counter() - t, out))
    return time.perf_counter() - start, results


def judge(workload, inp, out):
    from workloads import Outcome
    if isinstance(out, InputTimeout):
        return Outcome(False, None, "")
    if isinstance(out, Exception):
        return Outcome(False, f"raised {type(out).__name__}: {out}", "")
    try:
        return workload.judge(inp, out)
    except Exception as e:
        return Outcome(False, f"judging raised {type(e).__name__}: {e}", "")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dtrealize" / "__init__.py").is_file():
        print(f"error: no dtrealize sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import dtrealize
    if Path(dtrealize.__file__).resolve().parent != ROOT / "src" / "dtrealize":
        print(f"error: imported dtrealize from {dtrealize.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        inputs = workload.build(args.seed)
    except workloads.SetupError as e:
        print(f"error: set-up: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(time.perf_counter() - _T0)
        return 0

    setups = [sample_setup(args)]
    signal.signal(signal.SIGALRM, _on_alarm)
    records = {inp.name: {"expect": inp.expect, "seconds": [], "digests": set(), "timeouts": 0,
                          "errors": []}
               for inp in inputs}
    attempted = failed = decided = 0
    max_bits = 0

    def account(results, traced):
        nonlocal attempted, failed, decided, max_bits
        for inp, (secs, out) in zip(inputs, results):
            o = judge(workload, inp, out)
            rec = records[inp.name]
            attempted += 1
            failed += o.error is not None
            decided += o.decided
            max_bits = max(max_bits, o.coord_bits)
            if o.digest:
                rec["digests"].add(o.digest)
            if isinstance(out, InputTimeout):
                rec["timeouts"] += 1
            if o.error:
                rec["errors"].append(o.error)
            if not traced:
                rec["seconds"].append(secs)

    walls = []
    begin = time.perf_counter()
    while True:
        wall, results = timed_pass(workload, inputs)
        walls.append(wall)
        account(results, traced=False)
        if len(setups) < SETUP_SAMPLES[1]:
            setups.append(sample_setup(args))
        if time.perf_counter() - begin + max(walls) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES[0]:
        setups.append(sample_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    typical = {inp.name: median(records[inp.name]["seconds"]) for inp in inputs}
    e2e = {"setup_s": median(setups), "wall_s": sum(typical.values()),
           "peak_rss_mb": peak_rss_mb}
    extra = {"verdict_s.p50": (median(list(typical.values())), "s"),
             "decided_share": (decided / attempted, "1"),
             "failed_share": (failed / attempted, "1")}
    if args.workload == "verify-large":
        extra["verdict_s.accept.p50"] = (
            median([typical[i.name] for i in inputs if i.expect == "ACCEPT"]), "s")
        extra["verdict_s.reject.p50"] = (
            median([typical[i.name] for i in inputs if i.expect != "ACCEPT"]), "s")
    if args.workload == "realize-mix":
        extra["coord_bits.max"] = (max_bits, "bit")
    if workload.budget is not None:
        extra["budget_overrun_s"] = (
            median([max(0.0, t - workload.budget) for t in typical.values()]), "s")

    layers, spans, self_s = {}, [], {}
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_wall, results = timed_pass(workload, inputs, tracer)
        account(results, traced=True)
        layers = tracing.layer_metrics(tracer.spans, traced_wall, min(walls))
        spans = tracer.to_json()
        self_s = tracing.self_by_name(tracer.spans)

    # every output of an input must be byte-identical across passes, traced or not
    for rec in records.values():
        if len(rec["digests"]) > 1:
            rec["errors"].append(f"outputs differ between passes: {sorted(rec['digests'])}")
            failed += 1
    correct = failed == 0

    w = args.workload
    for name, unit in END_TO_END:
        print(f"{w:<13} {name:<34} {e2e[name]:>14.6f} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{w:<13} {name:<34} {value:>14.6f} {unit}")
    for name, value in layers.items():
        print(f"{w:<13} {name:<34} {value:>14.6f} {tracing.unit_of(name)}")
    for name, rec in records.items():
        for err in rec["errors"]:
            print(f"{w:<13} FAILED {name}: {err}")

    if args.trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": w, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "git": git_hash(),
                        "threads": {v: os.environ[v] for v in THREAD_VARS}},
        "end_to_end": e2e, "workload_metrics": {k: v for k, (v, _) in extra.items()},
        "layers": layers, "self_s_by_span": self_s, "pass_walls": walls,
        "setup_samples": setups,
        "inputs": {n: dict(r, digests=sorted(r["digests"])) for n, r in records.items()},
        "spans": spans,
    }
    (out_dir / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
