"""The three benchmark workloads, their correctness checks and metrics.

Every timed operation is checked after its timer stops.  An operation
fails when it raises a ``QwblockError``, raises anything else, or fails
its check; the run goes on after a failure.  Only a failed check or an
exception outside the ``QwblockError`` hierarchy makes a run incorrect: a
typed refusal is behaviour the library promises, counted but not wrong.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from qwblock import cli, oracle, solver
from qwblock.errors import QwblockError
from qwblock.model import ModelParams, validate
from qwblock.quadrature import QuadConfig

GRID = 512            # default grid of the library and the CLI
SETUP_REPEATS = 3     # set-up runs per process; setup_s takes their median
GOLDEN_TOL = 1e-8     # analytic vs frozen oracle table
RESIDUAL_TOL = 1e-8   # rate conservation of an analytic report
BRACKET_SLACK = 1e-9
MONOTONE_SLACK = 1e-12
A0_COLUMN_TOL = 1e-4
ORACLE_RTOL = 1e-10
ORACLE_RESIDUAL_TOL = 1e-12
PLANTED_B1_ERROR = 1e-3
# A fixed calibration kernel runs between operations at least every
# CAL_EVERY_S; times are reported at the CPU speed where it takes CAL_REF_S
# (see perfbench/README.md, "Normalised times").
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 3.0   # calibrations this close to an operation normalise it
CAL_REF_S = 0.02
# golden thresholds of the reference cases solved cold, and solved warm
COLD_REFS = (("base", 2), ("underload2", 5), ("overload2", 10))
WARM_THRESHOLDS = (2, 5, 10)
SWEEP_A_MAX = 30      # the CLI's default sweep range is a = 0..30
# criterion-10 pre-limit chain: (lambda1, lambda2, mu1, mu2, c1, c2, a)
PRELIMIT_ARGS = (3.0, 5.0, 1.0, 1.0, 1.0, 2.0, 2)
PRELIMIT_NUS = (50, 100, 200)
ORACLE_PER_LADDER = 3  # solve_limiting_walk calls between pre-limit ladders
# Cold-solve runs a fixed number of parameter sets, --seconds / COLD_SET_S,
# so which sets it solves, and which of them are refused, depend only on
# the seed and the run length, never on the speed of the machine.
# COLD_SET_S is the time one set (cold solve, baseline_a0, calibrations)
# took on 2 cores; a run still going after COLD_CAP_S stops early, so that
# a much slower program stays within the benchmark's time limit.
COLD_SET_S = 2.25
COLD_CAP_S = 120.0


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter, small-array, BLAS,
    transcendental, streaming and sparse-LU work, the kinds the workloads do.

    It shares no code with qwblock, so a change to the program cannot move
    it; it moves with the speed the shared CPU gives this process.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += math.sqrt(i)
    x = np.linspace(0.1, 1.0, 15)
    for _ in range(150):
        x = np.arctan2(np.sqrt(x * x + 1.0), x + 2.0)
    grid = np.linspace(0.0, math.pi, 513)
    waves = np.sin(np.outer(np.arange(1.0, 65.0), grid))
    gram = waves @ np.cos(np.outer(grid, np.arange(1.0, 513.0)))
    big = np.arange(1 << 19, dtype=float)
    for _ in range(2):
        big = big[::-1].copy()
    line = scipy.sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(30, 30))
    eye = scipy.sparse.identity(30)
    lap = (scipy.sparse.kron(line, eye) + scipy.sparse.kron(eye, line)).tocsc()
    sol = scipy.sparse.linalg.spsolve(lap, np.ones(900))
    if not (acc > 0 and x[0] > 0 and np.isfinite(gram[0, 0]) and big[0] >= 0
            and sol[0] > 0):
        raise RuntimeError("calibration kernel produced no result")
    return time.perf_counter() - t0


class Golden:
    """The frozen truncated-chain table and the reference parameter sets."""

    def __init__(self, path: Path):
        rows = json.loads(path.read_text())
        self.rows = {(r["name"], r["a"]): r for r in rows}
        self.cases: dict[str, ModelParams] = {}
        for r in rows:
            p = r["params"]
            self.cases[r["name"]] = ModelParams(
                p["lambda1"], p["lambda2"], p["mu1c1"], p["mu2c2"])

    def get(self, name: str, a: int):
        return self.rows.get((name, a))


class Run:
    """Timed operations of one run, their checks, and the tracer.

    Besides raw durations, every operation gets a duration at the
    reference CPU speed: its raw duration times CAL_REF_S over the median
    of the calibration samples taken within CAL_WINDOW_S of it.
    """

    def __init__(self, tracer=None, plant_fault: bool = False):
        self.tracer = tracer
        self.plant_fault = plant_fault
        # (kind, start, seconds, ok, key) of every timed operation
        self.records: list[tuple] = []
        self.durations: dict[str, list[float]] = {}   # raw, all attempted
        self.traced_durations: list[float] = []
        self.untraced_durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0        # failed checks
        self.untyped = 0      # exceptions outside QwblockError
        self.refused: dict[str, int] = {}
        self.cal: list[tuple[float, float]] = []      # (time, seconds)
        self.stats = {"golden_max_abs_err": 0.0, "residual_max": 0.0,
                      "oracle_states": 0, "prelimit_states": 0,
                      "rim_mass_max": 0.0, "oracle_residual_max": 0.0,
                      "cond_max": 0.0}

    def calibrate(self, force: bool = False) -> None:
        if force or not self.cal or \
                time.perf_counter() - self.cal[-1][0] >= CAL_EVERY_S:
            self.cal.append((time.perf_counter(), calibration_kernel()))

    def op(self, kind: str, fn, check, primary: bool = True, key=None):
        """Time fn(), then check its outcome; returns the outcome or None.

        In a traced run every other operation of each kind runs with the
        wrappers installed, so traced and untraced medians of the primary
        kind come from the same stretch of the run.
        """
        self.calibrate()
        count = len(self.durations.setdefault(kind, []))
        traced = self.tracer is not None and count % 2 == 0
        self.attempted += 1
        if traced:
            self.tracer.install()
        outcome, error = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.root(kind):
                    outcome = fn()
            else:
                outcome = fn()
        except QwblockError as exc:
            error = exc
        except Exception as exc:  # noqa: BLE001 - counted and reported
            error = exc
            self.untyped += 1
            traceback.print_exc(file=sys.stderr)
        dur = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        self.durations[kind].append(dur)
        ok = error is None
        if error is not None:
            self.failed += 1
            name = type(error).__name__
            self.refused[name] = self.refused.get(name, 0) + 1
        else:
            if self.plant_fault:
                self.plant_fault = False
                outcome["rows"][0]["B1"] += PLANTED_B1_ERROR
            problems = check(outcome)
            if problems:
                ok = False
                self.failed += 1
                self.wrong += 1
                print(f"check failed ({kind}): {'; '.join(problems[:3])}",
                      file=sys.stderr)
        self.records.append((kind, t0, dur, ok, key))
        if ok and self.tracer is not None and primary:
            (self.traced_durations if traced
             else self.untraced_durations).append(dur)
        return outcome if ok else None

    def times(self, kind: str, normalised: bool, ok_only: bool = True,
              key=None) -> list[float]:
        """Durations of one kind (and input key), raw or normalised."""
        stamps = [t for t, _ in self.cal]
        out = []
        for k, t0, dur, ok, op_key in self.records:
            if k != kind or (ok_only and not ok) or \
                    (key is not None and op_key != key):
                continue
            if normalised:
                lo = bisect.bisect_left(stamps, t0 - CAL_WINDOW_S)
                hi = bisect.bisect_right(stamps, t0 + dur + CAL_WINDOW_S)
                near = [c for _, c in self.cal[max(0, min(lo, hi - 1)):hi]]
                dur *= CAL_REF_S / statistics.median(near)
            out.append(dur)
        return out

    def keys(self, kind: str) -> set:
        return {r[4] for r in self.records if r[0] == kind and r[3]}

    def note_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats[key], float(value))

    def golden_err(self, got: float, want: float) -> float:
        err = abs(got - want)
        self.note_max("golden_max_abs_err", err)
        return err

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.untyped == 0


# ---------------------------------------------------------------- checks

def _check_report_row(run: Run, row: dict, golden_row, problems: list,
                      bracket: bool) -> None:
    """Golden, rate-conservation and bracketing checks on one analytic row."""
    run.note_max("residual_max", row["residual"])
    if not row["residual"] <= RESIDUAL_TOL:
        problems.append(f"a={row['a']} residual {row['residual']:.3e}")
    if golden_row is not None:
        for key in ("B1", "B2"):
            err = run.golden_err(row[key], golden_row[key])
            if not err <= GOLDEN_TOL:
                problems.append(f"a={row['a']} {key} off golden by {err:.3e}")
    if bracket:
        for key in ("B1", "B2"):
            lo = min(row[key + "_0"], row[key + "_inf"]) - BRACKET_SLACK
            hi = max(row[key + "_0"], row[key + "_inf"]) + BRACKET_SLACK
            if not (0.0 <= row[key] <= 1.0 and lo <= row[key] <= hi):
                problems.append(f"a={row['a']} {key}={row[key]!r} outside "
                                f"[{lo!r}, {hi!r}] or [0, 1]")


def _report_row(rep: dict, a: int) -> dict:
    """One sweep-style row from a BlockingReport.to_dict() document."""
    return {"a": a, "B1": rep["blocking"]["b1"], "B2": rep["blocking"]["b2"],
            "B1_0": rep["baseline_a0"]["b1"], "B2_0": rep["baseline_a0"]["b2"],
            "B1_inf": rep["baseline_inf"]["b1"],
            "B2_inf": rep["baseline_inf"]["b2"],
            "residual": rep["normalization_residual"],
            "cond": rep.get("diagnostics", {}).get("condition_estimate", 0.0)}


def _check_sweep(run: Run, rows: list, golden: Golden, name: str) -> list:
    problems: list[str] = []
    for prev, row in zip(rows, rows[1:]):
        if row["B1"] < prev["B1"] - MONOTONE_SLACK:
            problems.append(f"B1 falls from a={prev['a']} to a={row['a']}")
        if row["B2"] > prev["B2"] + MONOTONE_SLACK:
            problems.append(f"B2 rises from a={prev['a']} to a={row['a']}")
    first = rows[0]
    if first["a"] != 0 or len(rows) != SWEEP_A_MAX + 1:
        problems.append(f"sweep rows cover a={first['a']}..{rows[-1]['a']}")
    for key in ("B1", "B2"):
        if not abs(first[key] - first[key + "_0"]) <= A0_COLUMN_TOL:
            problems.append(f"a=0 {key} differs from the {key}_0 column")
    for row in rows:
        _check_report_row(run, row, golden.get(name, row["a"]), problems,
                          bracket=False)
    return problems


# ------------------------------------------------------------- workloads

def _draw(rng: random.Random) -> ModelParams:
    """Stable rates uniform on [0.5, 10], threshold uniform on 0..200."""
    while True:
        rates = [rng.uniform(0.5, 10.0) for _ in range(4)]
        p = ModelParams(*rates, a=rng.randint(0, 200))
        try:
            return validate(p)
        except QwblockError:
            continue


class ColdSolve:
    """blocking() on parameter sets the process has not seen."""

    def __init__(self, golden: Golden, seed: int):
        self.golden = golden
        self.seed = seed

    def setup(self, rep: int) -> None:
        self.refs = [(name, self.golden.cases[name].with_a(a))
                     for name, a in COLD_REFS]
        # load the lazy parts of the pipeline on a throwaway set
        solver.blocking(self.golden.cases["base"].scaled(0.5 ** (rep + 1)),
                        QuadConfig(grid_size=16))

    def timed(self, run: Run, seconds: float) -> None:
        cfg = QuadConfig(grid_size=GRID)
        rng = random.Random(self.seed)
        draws = ((None, _draw(rng)) for _ in itertools.count())
        n_sets = max(1, round(seconds / COLD_SET_S))
        t_cap = time.perf_counter() + COLD_CAP_S
        for name, params in itertools.islice(
                itertools.chain(self.refs, draws), n_sets):
            if time.perf_counter() >= t_cap:
                print(f"cold-solve: stopped after {COLD_CAP_S:g} s, before "
                      f"all {n_sets} parameter sets", file=sys.stderr)
                break
            golden_row = (self.golden.get(name, params.a)
                          if name is not None else None)

            def check(out, golden_row=golden_row):
                problems: list[str] = []
                row = out["rows"][0]
                run.note_max("cond_max", row["cond"])
                _check_report_row(run, row, golden_row, problems,
                                  bracket=True)
                return problems

            run.op("cold", lambda params=params: {"rows": [_report_row(
                solver.blocking(params, cfg).to_dict(), params.a)]}, check)

            # the no-reservation closed form on the same new set
            a0_row = self.golden.get(name, 0) if name is not None else None

            def check_a0(out, a0_row=a0_row):
                row = out["rows"][0]
                problems = [f"a=0 {key}={row[key]!r} outside [0, 1]"
                            for key in ("B1", "B2")
                            if not 0.0 <= row[key] <= 1.0]
                if a0_row is not None:
                    problems += [f"a=0 {key} differs from golden"
                                 for key in ("B1", "B2")
                                 if not abs(row[key] - a0_row[key])
                                 <= A0_COLUMN_TOL]
                return problems

            run.op("a0", lambda params=params: {"rows": [dict(zip(
                ("B1", "B2"), solver.baseline_a0(params, cfg)))]},
                check_a0, primary=False)

    def metrics(self, run: Run, norm: bool) -> dict:
        # A refused call tabulates the whole cut grid before the refusal,
        # so cold timings include it (see perfbench/README.md).
        cold = run.times("cold", norm, ok_only=False)
        return {"op": cold, "op2": run.times("a0", norm),
                "work_per_s": GRID * len(cold) / sum(cold)}

    def report(self, run: Run, norm: bool) -> list:
        return [("solve_cold_p50_s", run.times("cold", norm), "s"),
                ("solve_cold_attempted_p50_s",
                 run.times("cold", norm, ok_only=False), "s"),
                ("baseline_a0_cold_p50_s", run.times("a0", norm), "s")]


class WarmSweep:
    """CLI sweeps and solves on reference cases whose caches are built."""

    def __init__(self, golden: Golden, seed: int, tmpdir: Path):
        self.golden = golden
        self.rng = random.Random(seed)
        self.tmp = tmpdir

    @staticmethod
    def _argv(params: ModelParams) -> list:
        return ["--lambda1", repr(params.lambda1),
                "--lambda2", repr(params.lambda2),
                "--mu1", repr(params.mu1c1), "--mu2", repr(params.mu2c2),
                "--grid-size", str(GRID)]

    def setup(self, rep: int) -> None:
        # Earlier set-up runs use time-rescaled copies of the reference
        # sets: same blocking values, distinct cache keys, so each run
        # builds its caches afresh.  The last one uses the sets themselves.
        scale = 1.0 + (SETUP_REPEATS - 1 - rep) / 4.0
        for params in self.golden.cases.values():
            # the first blocking() of the sweep builds the boundary cache
            cli.main(["sweep", *self._argv(params.scaled(scale)),
                      "--format", "json", "-o", str(self.tmp / "setup.json")])
        self.names = list(self.golden.cases)
        self.rng.shuffle(self.names)
        self.solves = [(n, a) for n in self.names for a in WARM_THRESHOLDS]
        self.rng.shuffle(self.solves)

    def _cli(self, argv: list, out: Path):
        if cli.main(argv) != 0:
            raise QwblockError(f"qwblock {argv[0]} exited non-zero")
        return json.loads(out.read_text())

    def timed(self, run: Run, seconds: float) -> None:
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end or "solve" not in run.durations:
            name = self.names[i % len(self.names)]
            params = self.golden.cases[name]
            out = self.tmp / "sweep.json"
            argv = ["sweep", *self._argv(params), "--a-max", str(SWEEP_A_MAX),
                    "--format", "json", "-o", str(out)]
            run.op("sweep", lambda: {"rows": self._cli(argv, out)},
                   lambda o, name=name: _check_sweep(run, o["rows"],
                                                     self.golden, name))

            name, a = self.solves[i % len(self.solves)]
            params = self.golden.cases[name]
            out = self.tmp / "solve.json"
            argv = ["solve", *self._argv(params), "--a", str(a), "-o", str(out)]

            def check(o, name=name, a=a):
                problems: list[str] = []
                row = o["rows"][0]
                run.note_max("cond_max", row["cond"])
                _check_report_row(run, row, self.golden.get(name, a),
                                  problems, bracket=True)
                return problems

            run.op("solve", lambda a=a: {"rows": [_report_row(
                self._cli(argv, out), a)]}, check, primary=False)
            i += 1

    def metrics(self, run: Run, norm: bool) -> dict:
        sweeps, solves = run.times("sweep", norm), run.times("solve", norm)
        thresholds = (SWEEP_A_MAX + 1) * len(sweeps) + len(solves)
        busy = sum(sweeps) + sum(solves)
        return {"op": sweeps, "op2": solves,
                "work_per_s": thresholds / busy if busy else 0.0}

    def report(self, run: Run, norm: bool) -> list:
        return [("sweep_p50_s", run.times("sweep", norm), "s"),
                ("solve_warm_p50_ms",
                 [1e3 * d for d in run.times("solve", norm)], "ms")]


class Crosscheck:
    """The truncated-walk oracle on the golden points, and the pre-limit
    ladder that shares its generator builder."""

    def __init__(self, golden: Golden, seed: int):
        self.golden = golden
        self.rng = random.Random(seed)

    def setup(self, rep: int) -> None:
        self.points = sorted(self.golden.rows)
        base = self.golden.cases["base"]
        # load the sparse solver paths on the smallest golden chain
        oracle.solve_limiting_walk(base, oracle.default_box(base))
        oracle.solve_prelimit(*PRELIMIT_ARGS[:6], a=PRELIMIT_ARGS[6], nu=10)

    def _walk(self, params: ModelParams):
        box = oracle.default_box(params)
        dist = oracle.solve_limiting_walk(params, box)
        pair = oracle.blocking_from_distribution(dist, params)
        return {"rows": [{"a": params.a, "B1": pair.b1, "B2": pair.b2}],
                "box": list(box), "states": dist.probs.size,
                "rim": dist.boundary_mass, "residual": dist.residual}

    def _check_walk(self, run: Run, out: dict, name: str, a: int) -> list:
        problems: list[str] = []
        want = self.golden.get(name, a)
        row = out["rows"][0]
        run.stats["oracle_states"] += out["states"]
        run.note_max("rim_mass_max", out["rim"])
        run.note_max("oracle_residual_max", out["residual"])
        if out["box"] != want["box"]:
            problems.append(f"{name} a={a} box {out['box']} != {want['box']}")
        for key in ("B1", "B2"):
            err = run.golden_err(row[key], want[key])
            if not err <= ORACLE_RTOL * abs(want[key]):
                problems.append(f"{name} a={a} {key} off golden by {err:.3e}")
        if not out["residual"] <= ORACLE_RESIDUAL_TOL:
            problems.append(f"{name} a={a} residual {out['residual']:.3e}")
        return problems

    def _ladder(self):
        *rates, a = PRELIMIT_ARGS
        rows = []
        for nu in PRELIMIT_NUS:
            pair = oracle.solve_prelimit(*rates, a=a, nu=nu)
            rows.append({"nu": nu, "B1": pair.b1, "B2": pair.b2})
        return {"rows": rows}

    def _check_ladder(self, run: Run, out: dict) -> list:
        lam1, lam2, mu1, mu2, c1, c2, a = PRELIMIT_ARGS
        want = self.golden.get("base", a)
        run.stats["prelimit_states"] += sum(
            (round(nu * c1) + 1) * (round(nu * c2) + 1) for nu in PRELIMIT_NUS)
        errs = [max(abs(r["B1"] - want["B1"]), abs(r["B2"] - want["B2"]))
                for r in out["rows"]]
        if not all(e1 > e2 for e1, e2 in zip(errs, errs[1:])):
            return [f"pre-limit errors {errs} do not decrease over nu "
                    f"{PRELIMIT_NUS}"]
        return []

    def timed(self, run: Run, seconds: float) -> None:
        """Seed-shuffled passes over the 18 points, a ladder every six.

        Stops once time is up, at least one whole pass is done and a
        ladder has run; metrics use per-point medians, so a partial last
        pass does not change the mix of chain sizes they summarise.
        """
        t_end = time.perf_counter() + seconds
        done = 0
        while True:
            order = list(self.points)
            self.rng.shuffle(order)
            for name, a in order:
                params = self.golden.cases[name].with_a(a)
                run.op("walk", lambda params=params: self._walk(params),
                       lambda o, name=name, a=a: self._check_walk(
                           run, o, name, a), key=(name, a))
                done += 1
                if done % ORACLE_PER_LADDER == 0:
                    run.op("ladder", self._ladder,
                           lambda o: self._check_ladder(run, o), primary=False)
                if (time.perf_counter() >= t_end
                        and done >= len(self.points)
                        and "ladder" in run.durations):
                    return

    def _per_point(self, run: Run, norm: bool) -> list:
        """(states, median seconds) of each golden point solved at least once."""
        out = []
        for name, a in sorted(run.keys("walk")):
            box = self.golden.get(name, a)["box"]
            out.append(((box[0] + 1) * (box[1] + 1), statistics.median(
                run.times("walk", norm, key=(name, a)))))
        return out

    def metrics(self, run: Run, norm: bool) -> dict:
        points = self._per_point(run, norm)
        busy = sum(t for _, t in points)
        return {"op": [t for _, t in points],
                "op2": run.times("ladder", norm),
                "work_per_s": sum(n for n, _ in points) / busy if busy else 0.0}

    def report(self, run: Run, norm: bool) -> list:
        return [("oracle_p50_s", [t for _, t in self._per_point(run, norm)],
                 "s"),
                ("oracle_walk_pooled_p50_s", run.times("walk", norm), "s"),
                ("prelimit_ladder_s", run.times("ladder", norm), "s")]


WORKLOADS = {"cold-solve": ColdSolve, "warm-sweep": WarmSweep,
             "crosscheck": Crosscheck}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values: list):
    """Highest standard percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            ranked = sorted(values)
            return q, ranked[min(len(ranked) - 1,
                                 math.ceil(q / 100.0 * len(ranked)) - 1)]
    return None


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0
