"""ews3x2 benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pool --seed 2024 --seconds 20 --trace 0

The library is imported from the checkout's `src/` and nowhere else.  With
`--trace 0` the run is untraced and prints the end-to-end metrics; with
`--trace 1` it first measures an untraced pass on 40% of the budget, then a
traced pass on the rest, and prints the per-layer metrics (see tracer.py).
Every item's output is checked; a failed check exits 1 without a result.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: the acceptance gate's BASE_SEED; claims are re-checked on the held-out
#: seed 7919, which nothing was tuned against
DEFAULT_SEED = 2024
SETUP_REPEATS = 3
IMPORT_REPEATS = 15
#: time of `_IMPORT_KERNEL` on the nominal machine the import is scaled to
IMPORT_KERNEL_NOMINAL_S = 1.5e-3
TRACED_SHARE = 0.6

#: BLAS/OpenMP pools pinned to one thread, so `--jobs 2` means two busy cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

#: per-layer metrics taken from spans: (layer function, statistics wanted)
SPAN_METRICS = (
    ("model.sample_economy_shares", ("us_per_call",)),
    ("model.validate_economy", ("us_per_call", "calls_per_item")),
    ("model.ews_matrix", ("us_per_call", "calls_per_item")),
    ("production.sample_economy", ("us_per_call",)),
    ("production.solve_equilibrium", ("us_per_call",)),
    ("production.fd_rybczynski", ("us_per_call",)),
    ("statics.solve_linear", ("us_per_call", "calls_per_item")),
    ("statics.solve_partial_pivot", ("us_per_call", "calls_per_item")),
    ("statics.rybczynski_matrix", ("us_per_call",)),
    ("geometry.classify_subregion", ("us_per_call",)),
    ("geometry.quadrant", ("us_per_call",)),
    ("estimate.run_pipeline", ("us_per_call",)),
    ("estimate.preprocess", ("us_per_call",)),
    ("estimate.theorem1_verdict", ("us_per_call",)),
    ("estimate.corollary1_subregion", ("us_per_call",)),
    ("estimate.consistency_checks", ("us_per_call",)),
)


def fail(code: int, msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import ews3x2 from the checkout's src/ and time it."""
    if not (SRC / "ews3x2" / "__init__.py").is_file():
        fail(2, f"no ews3x2 package under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ews3x2
    import ews3x2.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(ews3x2.__file__).resolve().parent != SRC / "ews3x2":
        fail(2, f"ews3x2 imported from {ews3x2.__file__}, not from the checkout")
    return ews3x2, import_s


# Times the import in a fresh interpreter, with a pure-Python kernel timed
# five times before and five after it; numpy cannot be in the kernel, since
# loading it is most of what the import measures.  Prints the import time and
# the mean of the middle six kernel times.
_IMPORT_KERNEL = """
import sys, time
def kernel():
    x = 0
    for i in range(20000):
        x += (i * 7) % 13
    return x
def sample(n):
    out = []
    for _ in range(n):
        t = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t)
    return out
k = sample(5)
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import ews3x2, ews3x2.cli
d = time.perf_counter() - t
k = sorted(k + sample(5))
print(d, sum(k[2:8]) / 6)
"""


def child_import_s() -> float:
    """Import time of the package in a fresh interpreter, scaled to the
    nominal machine by the kernel timed around it in that interpreter.

    The host's speed for the import drifts by 30-50% from one minute to the
    next; the in-process reference kernel runs at other moments and on
    whichever core, and does not track it; the child's own kernel does."""
    import subprocess
    out = subprocess.run([sys.executable, "-c", _IMPORT_KERNEL, str(SRC)],
                         check=True, capture_output=True, text=True, timeout=60)
    import_s, kernel_s = map(float, out.stdout.split())
    return import_s * IMPORT_KERNEL_NOMINAL_S / kernel_s


class StepClock:
    """Called between set-up steps: sums each step's time, scaled by the
    reference kernel around it, leaving out the kernel's own time."""

    def __init__(self, ref):
        self.ref = ref
        self.total = 0.0
        self.t = time.perf_counter()

    def __call__(self):
        dt = time.perf_counter() - self.t
        self.ref.tick()
        self.total += self.ref.scale(dt)
        self.t = time.perf_counter()


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile_ms(latencies, p: int) -> float:
    return 1e3 * latencies.percentile(p)


def ok_frac(census, res) -> float:
    """Share of inputs that ran without a typed error: of the census where
    the workload has one, else of the timed items."""
    if census.n:
        return (census.n - census.failed) / census.n
    return (res.attempted - res.failed) / res.attempted


def end_to_end(res, census, setup_s: float) -> dict:
    lat = res.latencies
    return {
        "throughput_per_s": {"value": res.throughput, "unit": "1/s"},
        "item_ms_p50": {"value": percentile_ms(lat, 50), "unit": "ms"},
        "item_ms_p90": {"value": percentile_ms(lat, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "unit": "MB"},
        "ok_frac": {"value": ok_frac(census, res), "unit": "ratio"},
    }


def per_layer(tracer, res, untraced, census, import_s: float) -> dict:
    """Per-layer metrics from the spans of the traced pass `res`, with times
    divided by that pass's speed factor."""
    import numpy as np
    from tracer import LAYERS
    from workloads import JOBS2_ITEM

    f = res.speed
    a = tracer.arrays()
    names = tracer.names
    dur = (a["end"] - a["start"]) / f
    self_t = tracer.self_times() / f
    nid = a["name_id"]
    calls = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    items = max(res.traced_items, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def idx(fn):
        return names.index(fn) if fn in names else -1

    for fn, stats in SPAN_METRICS:
        i = idx(fn)
        n = calls[i] if i >= 0 else 0
        if "us_per_call" in stats:
            put(f"{fn}.us_per_call", 1e6 * total[i] / n if n else 0.0, "us")
        if "calls_per_item" in stats:
            put(f"{fn}.calls_per_item", n / items, "count")

    for fn in ("model.sample_economy_shares", "production.sample_economy"):
        draws, accepted = tracer.draws.get(fn, (0, 0))
        put(f"{fn}.draws_per_accept", draws / accepted if accepted else 0.0,
            "count")

    i = idx("production.solve_equilibrium")
    solves = a["name_id"] == i
    cold = solves & (a["parent"] < 0)
    n_solve = int(solves.sum())
    put("production.solve_equilibrium.cold_us_per_call",
        1e6 * dur[cold].mean() if cold.any() else 0.0, "us")
    put("production.solve_equilibrium.cost_evals_per_solve",
        sum(tracer.cost_evals.values()) / n_solve if n_solve else 0.0, "count")
    # the timed loop runs only inputs that passed the census, so the cold
    # solves that raise are counted there
    put("production.solve_equilibrium.failed_frac",
        census.cold_failed / census.n if census.n else 0.0, "ratio")

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0],
                        dtype=np.int64)
    wall = res.traced_wall / f
    layer_self = np.bincount(layer_of[nid], weights=self_t, minlength=len(LAYERS))
    bench = (wall - dur[a["parent"] < 0].sum()) / wall
    for layer, s in zip(LAYERS, layer_self):
        put(f"{layer}.self_frac", s / wall, "ratio")
    put("bench.self_frac", bench, "ratio")
    accounted = bench + layer_self.sum() / wall
    if abs(accounted - 1.0) > 1e-6:
        fail(1, f"self fractions account for {accounted:.9f} of the traced wall")

    put("cli.import_s", import_s, "s")
    i = idx("cli.cmd_sweep")
    jobs2 = (a["name_id"] == i) & (a["item"] >= JOBS2_ITEM)
    put("cli.sweep.self_s", self_t[jobs2].mean() if jobs2.any() else 0.0, "s")
    put("cli.sweep.jobs2_rows_per_s",
        untraced.extra.get("jobs2_rows_per_s", 0.0), "1/s")
    put("cli.sweep.jobs2_speedup", untraced.extra.get("jobs2_speedup", 0.0),
        "ratio")
    put("trace.overhead", untraced.throughput / res.throughput, "ratio")
    return out


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="pool, sweep, estimate or oracle")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the package import (numpy included) is the first thing timed
    m, import_s = import_package()
    t_imported = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, CheckFailed, Reference
    if args.workload not in WORKLOADS:
        fail(2, f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    machine = machine_record()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        # Set-up is repeated and its median reported.  The import is timed
        # in fresh interpreters and scaled by a kernel timed in each of them;
        # input generation is timed step by step and scaled like the
        # workloads' items.
        imports = [child_import_s() for _ in range(IMPORT_REPEATS)]
        gen_s = []
        inputs = fingerprint = None
        for _ in range(SETUP_REPEATS):
            clock = StepClock(Reference())
            built = workload.setup(m, args.seed, workdir, clock)
            clock()
            gen_s.append(clock.total)
            fp = workload.fingerprint(built)
            if inputs is None:
                inputs, fingerprint = built, fp
            elif fp != fingerprint:
                raise CheckFailed("set-up is not deterministic for a fixed seed")
        setup_s = (t_imported - T_START - import_s + statistics.median(imports)
                   + statistics.median(gen_s))
        census = workload.census(m, inputs)
        inputs = census.inputs

        if args.trace == 0:
            res = workload.run(m, inputs, args.seconds, None)
            metrics = end_to_end(res, census, setup_s)
            attempted, failed = res.attempted, res.failed
            detail = {"raw_throughput_per_s": res.items / res.raw_busy_s}
        else:
            from tracer import Tracer
            untraced = workload.run(m, inputs, args.seconds * (1 - TRACED_SHARE),
                                    None)
            tracer = Tracer(m)
            tracer.install()
            try:
                res = workload.run(m, inputs, args.seconds * TRACED_SHARE, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, res, untraced, census,
                                statistics.median(imports))
            attempted = untraced.attempted + res.attempted
            failed = untraced.failed + res.failed
            detail = {"spans": len(tracer.start),
                      "trace_file": f"{OUT.name}/trace-{args.workload}-"
                                    f"seed{args.seed}.npz"}
            tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz",
                        {"workload": args.workload, "seed": args.seed,
                         "machine": machine, "metrics": metrics})
    except CheckFailed as exc:
        fail(1, f"check failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": machine, "import_s": imports, "import_raw_s": import_s,
        "setup_gen_s": gen_s,
        "setup_s": setup_s, "census_inputs": census.n,
        "census_failed": census.failed,
        "items": res.items, "speed": res.speed,
        "latency_samples": res.latencies.n,
        "latency_windows": len(res.latencies.windows),
        "item_ms_p99": percentile_ms(res.latencies, 99),
        "extra": res.extra,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
