"""The four benchmark workloads: pool, sweep, estimate and oracle.

Each workload has a deterministic `setup(m, seed, workdir, tick)` that builds
its inputs from the seed alone, calling `tick` between steps, and a
`run(m, inputs, seconds, tracer)` that drives items through the public API
(or `cli.main`) until the time budget is spent.  Every item's output is
checked as soon as the item ends, outside its timed window and with tracing
paused, so memory stays flat however fast the library runs.  A failed check
raises `CheckFailed`; typed `Ews3x2Error` outcomes are counted as failed
items and never abort the run.

`estimate` and `oracle` cycle over a fixed input set.  Their `census` runs
each input once, untimed and checked, before the timed loop; the inputs that
end in a typed error are counted there (they give `ok_frac`), and the timed
loop cycles over the rest.  So the count of failed inputs depends on the
seed alone, not on how many items the time budget allowed.  `pool` and
`sweep` draw fresh seeds per item and have no census.

Between items the loop times a fixed reference kernel (`Reference`), and
every time is scaled by it to a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

perf = time.perf_counter


#: reference-kernel time on the nominal machine all reported times are scaled to
REF_NOMINAL_S = 250e-6
_REF_A = np.linspace(0.1, 2.5, 25).reshape(5, 5)


def reference_kernel() -> float:
    """Fixed mix of small numpy operations and interpreter work, the same
    kind of work as the library's, and independent of it."""
    x = 0.0
    for i in range(60):
        b = _REF_A * (1.0 + i)
        x += float(b.sum()) + (x % 3.0)
        for j in range(8):
            x += j * 0.5
    return x


class Reference:
    """Times a fixed reference kernel alongside the workload, so that the
    workload's times can be scaled to a fixed machine speed.

    This shared host's speed swings by tens of percent within a second and
    across minutes, for the library and the kernel alike.  `tick()` between
    items keeps about one kernel sample per `interval` of wall time (about 2%
    of it); `scale()` divides a time by the host's speed around that moment:
    the mean of the last `window` samples over the kernel's nominal time.
    """

    def __init__(self, interval: float = 0.01, max_batch: int = 40,
                 window: int = 8):
        self.interval = interval
        self.max_batch = max_batch
        self.recent = deque(maxlen=window)
        self.sample(window)

    def sample(self, count: int):
        """Time `count` kernels now."""
        for _ in range(count):
            t0 = perf()
            reference_kernel()
            self.recent.append(perf() - t0)
        self.last = perf()

    def tick(self):
        """Run one kernel per `interval` of wall time since the last tick."""
        due = int((perf() - self.last) / self.interval)
        if due > 0:
            self.sample(min(due, self.max_batch))

    def scale(self, seconds: float) -> float:
        """`seconds` as the nominal machine would have taken them now."""
        return seconds * REF_NOMINAL_S * len(self.recent) / sum(self.recent)


class Latencies:
    """Latency percentiles as the median over windows of consecutive items.

    On a shared host, interference comes in bursts that the reference
    kernel does not fully track, and it lands in the tail first.  So the
    items are cut into windows of at least `window_s` of item time and
    `min_items` items, each window's percentiles are kept, and `percentile`
    reports their median: a burst moves the windows it hits, not the result.
    Memory holds one window of values.
    """

    PERCENTILES = (50, 90, 99)

    def __init__(self, window_s: float = 0.5, min_items: int = 100):
        self.window_s = window_s
        self.min_items = min_items
        self.current: list[float] = []
        self.current_s = 0.0
        self.windows: list[dict] = []   # per window: {p: seconds}
        self.n = 0

    def add(self, x: float):
        self.n += 1
        self.current.append(x)
        self.current_s += x
        if self.current_s >= self.window_s and len(self.current) >= self.min_items:
            self._close()

    def _close(self):
        cuts = statistics.quantiles(self.current, n=100, method="inclusive")
        self.windows.append({p: cuts[p - 1] for p in self.PERCENTILES})
        self.current, self.current_s = [], 0.0

    def percentile(self, p: int) -> float:
        """Median over windows of the p-th percentile (inclusive method); a
        last partial window counts only when it is the only one."""
        if not self.windows:
            self._close()
        return statistics.median(w[p] for w in self.windows)


class CheckFailed(Exception):
    """An output of the library disagreed with its reference."""


@dataclass
class Census:
    """Outcome of running every input of a fixed input set once."""

    inputs: object            # what the timed loop cycles over
    n: int = 0                # inputs run in the census; 0 when there was none
    failed: int = 0           # of those, ended in a typed error
    failed_outputs: list = field(default_factory=list)
    cold_failed: int = 0      # oracle: cases whose cold far-start solve raised


def no_census(m, inputs) -> Census:
    return Census(inputs)


def _census(m, inputs, do_item, check_item) -> Census:
    """Runs and checks each input once; the timed loop gets those that ran
    without a typed error."""
    ok_inputs, failed_outputs = [], []
    for inp in inputs:
        try:
            ok, out = do_item(m, inp)
        except m.Ews3x2Error:
            ok, out = False, None
        if out is not None:
            check_item(m, inp, out)
        if ok:
            ok_inputs.append(inp)
        else:
            failed_outputs.append(out)
    if not ok_inputs:
        raise CheckFailed("every input ended in a typed error")
    return Census(ok_inputs, len(inputs), len(failed_outputs), failed_outputs)


@dataclass
class Result:
    """What one timed pass over a workload measured; times are scaled by a
    `Reference` unless named raw."""

    items: int = 0          # items completed, for throughput
    busy_s: float = 0.0     # summed timed windows of those items
    raw_busy_s: float = 0.0
    latencies: Latencies = field(default_factory=Latencies)  # per latency item
    attempted: int = 0
    failed: int = 0
    traced_items: int = 0   # items whose library calls ran in this process
    traced_wall: float = 0.0  # raw summed windows in which spans were recorded
    extra: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.items / self.busy_s

    @property
    def speed(self) -> float:
        """Raw over scaled time of the throughput windows."""
        return self.raw_busy_s / self.busy_s


def _drive(deadline, inputs, do_item, check_item, tracer, m) -> Result:
    """Closed loop, one item at a time, cycling through the inputs."""
    res = Result()
    ref = Reference()
    k = 0
    n = len(inputs)
    while perf() < deadline or k < 2:
        inp = inputs[k % n]
        if tracer is not None:
            tracer.item_id = k
            tracer.active = True
        t0 = perf()
        try:
            ok, out = do_item(m, inp)
        except m.Ews3x2Error:
            ok, out = False, None
        dt = perf() - t0
        if tracer is not None:
            tracer.active = False
        res.items += 1
        res.attempted += 1
        res.failed += not ok
        if out is not None:
            check_item(m, inp, out)
        ref.tick()
        scaled = ref.scale(dt)
        res.latencies.add(scaled)
        res.busy_s += scaled
        res.raw_busy_s += dt
        k += 1
    res.traced_items = res.items
    res.traced_wall = res.raw_busy_s
    return res


# ---------------------------------------------------------------------------
# pool: the tier-1 acceptance pool, as tests/test_acceptance.py::pool builds it

class Pool:
    name = "pool"
    census = staticmethod(no_census)

    @staticmethod
    def setup(m, seed, workdir, tick):
        return {"seed": seed, "ranked": m.SampleConstraints(ranked=True),
                "shock": m.Shock.price(1.0)}

    @staticmethod
    def fingerprint(inputs):
        return inputs["seed"]

    @staticmethod
    def run(m, inputs, seconds, tracer) -> Result:
        seed, ranked, shock = inputs["seed"], inputs["ranked"], inputs["shock"]

        def item(m, k):
            if k % 2 == 0:
                e = m.sample_economy_shares(seed + k)
            else:
                e = m.sample_economy(seed + k, ranked).economy
            g = m.ews_matrix(e)
            m.solve_linear(e, shock)
            return True, (e, g)

        def check(m, k, out):
            e, g = out
            if not m.validate_economy(e, check_ranking=True).ok:
                raise CheckFailed(f"pool economy {seed + k} does not validate")
            res = max(float(np.abs(g.row_sums()).max()),
                      float(np.abs(g.reciprocity_residuals()).max()))
            if not res < 1e-10:
                raise CheckFailed(f"pool economy {seed + k}: EWS residual {res:.3e}")

        return _drive(perf() + seconds, range(1 << 30), item, check, tracer, m)


# ---------------------------------------------------------------------------
# sweep: `ews3x2 sweep --constraint quadrant4` in-process through cli.main

JOBS1_ROWS = 20             # rows per --jobs 1 command in the throughput phase
GROUP = 10                  # --jobs 1 commands covered by one --jobs 2 command
ONE_ROW_SEED_OFFSET = 10_000_000
LATENCY_SAMPLES = 1000      # so that ten samples lie beyond p99
JOBS2_ITEM = 1 << 24        # item ids of --jobs 2 commands start here


class Sweep:
    name = "sweep"
    census = staticmethod(no_census)

    @staticmethod
    def setup(m, seed, workdir, tick):
        return {"seed": seed, "workdir": workdir}

    @staticmethod
    def fingerprint(inputs):
        return inputs["seed"]

    @staticmethod
    def _command(m, out, seed, count, jobs):
        """One sweep command: (exit code or None on a typed error, seconds)."""
        argv = ["--out", str(out), "sweep", "--seed", str(seed),
                "--count", str(count), "--constraint", "quadrant4",
                "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf()
            try:
                rc = m.cli.main(argv)
            except m.Ews3x2Error:
                rc = None
            dt = perf() - t0
        if rc not in (0, 1, None):
            raise CheckFailed(f"sweep {' '.join(argv)} exited {rc}")
        return rc, dt

    @staticmethod
    def _failed_rows(lines, count: int, what: str) -> int:
        """Rows the CLI itself marked not ok; checks the row count."""
        rows = list(csv.reader(lines))
        if rows[0][-1] != "ok" or len(rows) != count + 1:
            raise CheckFailed(f"{what}: expected {count} rows, got {len(rows) - 1}")
        return sum(r[-1] != "True" for r in rows[1:])

    @staticmethod
    def _joined(parts) -> bytes:
        """The CSV one command over all the parts' seeds would write: the
        parts' rows in order, with the leading row index renumbered."""
        rows = [row.split(",", 1)[1] for part in parts for row in part[1:]]
        return "".join([parts[0][0] + "\n"] + [f"{i},{rest}\n" for i, rest
                                                 in enumerate(rows)]).encode()

    @classmethod
    def run(cls, m, inputs, seconds, tracer) -> Result:
        """40% of the budget on short --jobs 1 commands, so the reference
        kernel interleaves finely (throughput); the same seeds again in
        GROUP-times longer --jobs 2 commands (byte-identity, jobs-2 rate);
        the rest, and at least LATENCY_SAMPLES commands, on one-row --jobs 1
        commands (per-row latency)."""
        seed, wd = inputs["seed"], inputs["workdir"]
        res = Result()
        ref = Reference()
        start = perf()
        groups = []  # per group: the --jobs 1 CSV lines, or None after an error
        while not groups or perf() < start + 0.4 * seconds:
            parts = []
            for c in range(GROUP):
                base = seed + (len(groups) * GROUP + c) * JOBS1_ROWS
                out = wd / "jobs1.csv"
                if tracer is not None:
                    tracer.item_id = len(groups) * GROUP + c
                    tracer.active = True
                rc, dt = cls._command(m, out, base, JOBS1_ROWS, 1)
                if tracer is not None:
                    tracer.active = False
                if rc is None or parts is None:
                    parts = None
                else:
                    lines = out.read_text().splitlines()
                    res.failed += cls._failed_rows(
                        lines, JOBS1_ROWS, f"sweep --seed {base} --count {JOBS1_ROWS}")
                    parts.append(lines)
                res.items += JOBS1_ROWS
                res.attempted += JOBS1_ROWS
                ref.tick()
                res.busy_s += ref.scale(dt)
                res.raw_busy_s += dt
                res.traced_wall += dt
            groups.append(parts)
        res.traced_items = res.items

        jobs2_s = 0.0
        rows = GROUP * JOBS1_ROWS
        for g, parts in enumerate(groups):
            base = seed + g * rows
            what = f"sweep --seed {base} --count {rows}"
            out = wd / "jobs2.csv"
            if tracer is not None:
                tracer.item_id, tracer.active = JOBS2_ITEM + g, True
            rc, dt = cls._command(m, out, base, rows, 2)
            if tracer is not None:
                tracer.active = False
            ref.tick()
            jobs2_s += ref.scale(dt)
            res.traced_wall += dt
            if (parts is None) != (rc is None):
                raise CheckFailed(f"{what}: a typed error at only one of "
                                  "--jobs 1 and --jobs 2")
            if parts is None:
                res.failed += rows
            elif out.read_bytes() != cls._joined(parts):
                raise CheckFailed(f"{what}: the --jobs 2 CSV differs from the "
                                  "--jobs 1 CSVs of the same seeds")
        res.extra["jobs2_rows_per_s"] = res.items / jobs2_s
        res.extra["jobs2_speedup"] = res.extra["jobs2_rows_per_s"] / res.throughput

        out = wd / "one.csv"
        i = 0
        while perf() < start + seconds or i < LATENCY_SAMPLES:
            s = seed + ONE_ROW_SEED_OFFSET + i
            if tracer is not None:
                tracer.item_id, tracer.active = len(groups) * GROUP + i, True
            rc, dt = cls._command(m, out, s, 1, 1)
            if tracer is not None:
                tracer.active = False
            if rc is None:
                res.failed += 1
            else:
                res.failed += cls._failed_rows(out.read_text().splitlines(), 1,
                                               f"sweep --seed {s} --count 1")
            ref.tick()
            res.latencies.add(ref.scale(dt))
            res.attempted += 1
            res.traced_items += 1
            res.traced_wall += dt
            i += 1
        return res


# ---------------------------------------------------------------------------
# estimate: run_pipeline over synthetic two-period observations

ESTIMATE_ECONOMIES = 250
SHOCKS_PER_ECONOMY = 4
#: rescaled copies multiply every rate by 10**U(lo, hi); real rates arrive in
#: arbitrary units, and the low end reaches below preprocess's absolute 1e-12
SCALE_DECADES = (-13.0, 3.0)


class Estimate:
    name = "estimate"

    @staticmethod
    def setup(m, seed, workdir, tick):
        """Observations of sampled economies (every other one constrained to
        quadrant IV) under random endowment shocks, each followed by three
        copies: factor labels permuted, time-reversed, rates rescaled."""
        rng = np.random.default_rng(seed)
        ranked = m.SampleConstraints(ranked=True)
        quad4 = m.SampleConstraints(ranked=True, quadrant="IV")
        out = []
        for k in range(ESTIMATE_ECONOMIES):
            e = m.sample_economy(seed + k, quad4 if k % 2 else ranked).economy
            pt = m.ews_ratio_vector(m.ews_matrix(e))
            for _ in range(SHOCKS_PER_ECONOMY):
                shock = m.Shock(p_star=np.array([1.0, 0.0]),
                                v_star=rng.normal(size=3))
                o = m.observation_from_response(e, m.solve_linear(e, shock))
                perm = rng.permutation(3)
                while np.array_equal(perm, np.arange(3)):
                    perm = rng.permutation(3)
                c = 10.0 ** rng.uniform(*SCALE_DECADES)
                copies = (
                    (o, False),
                    (m.Observation(theta_share=o.theta_share[perm],
                                   theta_good=o.theta_good, p_star=o.p_star,
                                   w_star=o.w_star[perm], a_star=o.a_star[perm]),
                     False),
                    (m.Observation(theta_share=o.theta_share,
                                   theta_good=o.theta_good, p_star=-o.p_star,
                                   w_star=-o.w_star, a_star=-o.a_star), True),
                    (m.Observation(theta_share=o.theta_share,
                                   theta_good=o.theta_good, p_star=c * o.p_star,
                                   w_star=c * o.w_star, a_star=c * o.a_star),
                     False),
                )
                out.extend((obs, rev, pt) for obs, rev in copies)
            tick()
        return out

    @staticmethod
    def fingerprint(inputs):
        return float(sum(obs.w_star.sum() for obs, _, _ in inputs))

    @staticmethod
    def item(m, inp):
        obs, rev, _ = inp
        rep = m.run_pipeline(obs, time_reversal=rev)
        rep.to_dict()
        return True, rep.theorem1

    @staticmethod
    def check(m, inp, v):
        pt = inp[2]
        if v.verdict != "quadrant IV":
            return
        b = v.bounds
        if not (b["s_low"] <= pt.s <= b["s_high"]
                and b["u_low"] <= pt.u <= b["u_high"]):
            raise CheckFailed(f"quadrant-IV bounds {b} miss the true ratio "
                              f"point ({pt.s}, {pt.u})")

    @classmethod
    def census(cls, m, inputs) -> Census:
        return _census(m, inputs, cls.item, cls.check)

    @classmethod
    def run(cls, m, inputs, seconds, tracer) -> Result:
        return _drive(perf() + seconds, inputs, cls.item, cls.check, tracer, m)


# ---------------------------------------------------------------------------
# oracle: the nonlinear Newton oracle against the linearised system

ORACLE_CASES = 1000
#: the far start of tests/test_production.py::test_equilibrium_from_far_start
FAR_W0 = (1.5, 0.7, 1.2)
FAR_X0 = (0.8, 1.5)


class Oracle:
    name = "oracle"

    @staticmethod
    def setup(m, seed, workdir, tick):
        ranked = m.SampleConstraints(ranked=True)
        out = []
        for k in range(ORACLE_CASES):
            out.append(m.sample_economy(seed + k, ranked))
            tick()
        return out

    @staticmethod
    def fingerprint(inputs):
        return float(sum(s.equilibrium.V.sum() for s in inputs))

    @staticmethod
    def item(m, s):
        eq = s.equilibrium
        ok = True
        fd = cold = None
        try:
            fd = m.fd_rybczynski(s.specs, eq.p, eq.V, h=1e-4, base=eq)
        except m.Ews3x2Error:
            ok = False
        lin, signs = m.rybczynski_matrix(s.economy)
        try:
            cold = m.solve_equilibrium(s.specs, eq.p, eq.V,
                                       w0=FAR_W0, x0=FAR_X0)
        except m.Ews3x2Error:
            ok = False
        return ok, (fd, lin, signs, cold)

    @staticmethod
    def check(m, s, out):
        fd, lin, signs, cold = out
        if fd is not None:
            if not np.array_equal(np.sign(fd).astype(int), signs):
                raise CheckFailed(f"oracle seed {s.seed}: fd signs "
                                  f"{np.sign(fd).tolist()} != {signs.tolist()}")
            if not np.all(np.abs(fd - lin) <= 0.01 * np.abs(lin)):
                raise CheckFailed(f"oracle seed {s.seed}: fd {fd.tolist()} "
                                  f"not within 1% of {lin.tolist()}")
        if cold is not None and not np.allclose(cold.w, s.equilibrium.w,
                                                rtol=1e-8):
            raise CheckFailed(f"oracle seed {s.seed}: cold solve w {cold.w} "
                              f"!= calibrated {s.equilibrium.w}")

    @classmethod
    def census(cls, m, inputs) -> Census:
        """Also counts the cases whose cold far-start solve raised."""
        c = _census(m, inputs, cls.item, cls.check)
        c.cold_failed = sum(out is None or out[3] is None
                            for out in c.failed_outputs)
        return c

    @classmethod
    def run(cls, m, inputs, seconds, tracer) -> Result:
        return _drive(perf() + seconds, inputs, cls.item, cls.check, tracer, m)


WORKLOADS = {w.name: w for w in (Pool, Sweep, Estimate, Oracle)}
