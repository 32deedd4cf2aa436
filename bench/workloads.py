"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed in ``setup`` and
then runs rounds.  A round issues the program's calls back to back from
this process (a closed loop with one caller), timing each operation;
``check`` then verifies the round's outputs against ``reference`` with
the clock stopped.  Rounds of one workload cycle over its groups
(protocols or regimes); a pass is one round of every group, and every
pass repeats the same calls on the same inputs with the same seeds.

Program functions are looked up on their modules at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from rcoreset import cli, core, coreset1d, evaluation, instances, solver

import reference as ref

REL_TOL = 1e-9
SAMPLED_CENTERS = 2  # candidate centers re-scored by the reference per round


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def tally(op_times) -> dict:
    """Sum (kind, seconds) call times into run_s and one total per kind."""
    out = {"run_s": 0.0, "coreset_s": 0.0, "eval_s": 0.0}
    for kind, dt in op_times:
        out["run_s"] += dt
        if kind is not None:
            out[kind] += dt
    return out


@dataclass
class Round:
    """What one round measured and what its checks found."""

    group: str
    op_times: list = field(default_factory=list)  # (kind, seconds) per call
    quality: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # unexpected failures
    known_faults: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    ref_s: float = 0.0  # the reference work's mean time just before and after
    number: int = 0  # the round's place in the run

    @property
    def times(self) -> dict:
        return tally(self.op_times)

    def op(self, kind: str | None, fn, *args, **kwargs):
        """Call the program once and record its time under `kind`."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_times.append((kind, time.perf_counter() - t0))

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.errors.append(what)


def check_coreset(rnd: Round, pts, w, n: int, target: int | None, row_set: set | None, what: str):
    """Finite positive weights summing to n, within target, rows from the input."""
    rnd.expect(bool(np.all(np.isfinite(w)) and np.all(w > 0)), f"{what}: weights not finite and positive")
    rnd.expect(rel_close(float(np.sum(w)), float(n)), f"{what}: weights sum to {np.sum(w)!r}, not {n}")
    if target is not None:
        rnd.expect(len(w) <= target, f"{what}: {len(w)} rows exceed the target {target}")
    if row_set is not None:
        rnd.expect(all(row.tobytes() in row_set for row in pts), f"{what}: a row is not an input point")


def row_set_of(P: np.ndarray) -> set:
    return {row.tobytes() for row in np.ascontiguousarray(P)}


def max_rel_gap(cost_S: np.ndarray, cost_P: np.ndarray) -> float:
    valid = cost_P > 0
    return float(np.max(np.abs(cost_S[valid] - cost_P[valid]) / cost_P[valid]))


def sample_idx(total: int, number: int) -> np.ndarray:
    """Evenly spaced candidate centers, shifted by the round's number so
    that the passes of a run re-score different ones."""
    return (np.arange(SAMPLED_CENTERS) * (total // SAMPLED_CENTERS) + number) % total


class NdSweep:
    """The paper's size–accuracy comparison on Gaussian clusters in d=10."""

    name = "nd-sweep"
    n, d, m = 100_000, 10, 2000
    protocols = [(1, 1), (5, 1), (5, 2)]
    restarts = 3
    max_iters = 20
    num_centers = 100

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.groups = [f"k{k}z{z}" for k, z in self.protocols]
        self.instances: dict = {}

    def setup(self) -> None:
        self.instances = {
            p: instances.gen_gaussian_clusters(self.n, self.d, k, self.m, seed=(self.seed, 0, p))
            for p, (k, _) in enumerate(self.protocols)
        }

    def prepare(self) -> None:
        """C*, an input of the builders: the best of the full-data restarts.

        It is the same in every round, so it is computed once per run and
        kept out of every end-to-end metric: with the seeding fault its
        iteration count swings with the data (2 to the cap of 20 at k=5,
        z=1).
        """
        self.full = {
            p: [
                solver.lloyd_with_outliers(P, k, self.m, z, max_iters=self.max_iters,
                                           seed=(self.seed, 1, p, 0, j))
                for j in range(self.restarts)
            ]
            for p, ((k, z), (P, _)) in enumerate(zip(self.protocols, self.instances.values()))
        }
        self.c_star = {p: min(full, key=lambda s: s.cost).centers for p, full in self.full.items()}

    def verify_setup(self) -> list[str]:
        """Check C*'s restarts; fix each instance's row set and reference cost."""
        errors = []
        self.rows, self.ref_cost = {}, {}
        for p, ((k, z), (P, labels)) in enumerate(zip(self.protocols, self.instances.values())):
            for j, s in enumerate(self.full[p]):
                want = ref.robust_cost(P, s.centers.centers, z, self.m)
                if not rel_close(s.cost, want):
                    errors.append(f"{self.groups[p]} full Lloyd {j}: cost {s.cost!r} != reference {want!r}")
            self.rows[p] = row_set_of(P)
            # Cost at the generator's per-label means (z=2) or medians (z=1).
            stat = np.mean if z == 2 else np.median
            C = np.array([stat(P[labels == j], axis=0) for j in range(k)])
            self.ref_cost[p] = ref.robust_cost(P, C, z, self.m)
        return errors

    def run_round(self, r: int) -> Round:
        p = r % len(self.protocols)
        k, z = self.protocols[p]
        P, _ = self.instances[p]
        m = self.m
        rnd = Round(self.groups[p])
        rnd.outputs.update(p=p, z=z)
        builders = evaluation.default_builders(self.c_star[p])
        coresets = {"ours": rnd.op("coreset_s", builders["ours"], P, m, k, z, m, (self.seed, 1, p, 1))}
        for tag in ("hllw25", "hjlw23", "uniform"):
            coresets[tag] = rnd.op(None, builders[tag], P, m, k, z, 2 * m, (self.seed, 1, p, 2))
        centers = rnd.op("eval_s", evaluation.draw_candidate_centers, P, k, self.num_centers,
                         (self.seed, 1, p, 3))
        cost_P = rnd.op("eval_s", core.robust_cost_many, P, centers, z, m)
        cost_S = {
            tag: rnd.op("eval_s", core.robust_cost_weighted_many, S, centers, z, m)
            for tag, S in coresets.items()
        }
        S = coresets["ours"]
        solves = [
            rnd.op(None, solver.lloyd_with_outliers, S.points, k, float(m), z,
                   max_iters=self.max_iters, seed=(self.seed, 1, p, 4, j), weights=S.weights)
            for j in range(self.restarts)
        ]
        best = min(solves, key=lambda s: s.cost)
        sol_cost = rnd.op(None, core.robust_cost, P, best.centers, m)
        rnd.outputs.update(coresets=coresets, centers=centers, cost_P=cost_P,
                           cost_S=cost_S, solves=solves, best=best, sol_cost=sol_cost)
        return rnd

    def check(self, rnd: Round) -> None:
        o = rnd.outputs
        p, z = o["p"], o["z"]
        P, _ = self.instances[p]
        m = self.m
        for tag, S in o["coresets"].items():
            check_coreset(rnd, S.points, S.weights, self.n, m if tag == "ours" else 2 * m,
                          self.rows[p], tag)
        for t in sample_idx(self.num_centers, rnd.number):
            C = o["centers"][t]
            want = ref.robust_cost(P, C, z, m)
            rnd.expect(rel_close(o["cost_P"][t], want), f"robust_cost_many at center {t}")
            for tag, S in o["coresets"].items():
                want = ref.weighted_robust_cost(S.points, S.weights, C, z, m)
                rnd.expect(rel_close(o["cost_S"][tag][t], want), f"robust_cost_weighted_many ({tag}) at {t}")
        S = o["coresets"]["ours"]
        for j, s in enumerate(o["solves"]):
            want = ref.weighted_robust_cost(S.points, S.weights, s.centers.centers, z, m)
            rnd.expect(rel_close(s.cost, want), f"coreset Lloyd {j}: cost {s.cost!r} != reference {want!r}")
        sol_ref = ref.robust_cost(P, o["best"].centers.centers, z, m)
        rnd.expect(rel_close(o["sol_cost"], sol_ref), "robust_cost of the coreset solution")
        rnd.quality = {
            "coreset_rows": float(len(S)),
            "rel_cost_gap": max_rel_gap(o["cost_S"]["ours"], o["cost_P"]),
            "solution_cost_ratio": o["sol_cost"] / self.ref_cost[p],
        }
        rnd.extra = {
            f"rel_cost_gap.{tag}": max_rel_gap(o["cost_S"][tag], o["cost_P"])
            for tag in ("hllw25", "hjlw23", "uniform")
        }
        rnd.outputs = {}


class Line1d:
    """The 1-d builder on a sorted Gaussian with far outliers, two m/n regimes."""

    name = "line-1d"
    n = 200_000
    regimes = [0.01, 0.2]  # m / n
    eps_values = [0.2, 0.1, 0.05]
    solve_eps = 0.1
    num_centers = 200
    misalignment_centers = 6

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.groups = [f"m/n={f}" for f in self.regimes]
        self.instances: dict = {}

    def setup(self) -> None:
        self.instances = {}
        for g, frac in enumerate(self.regimes):
            P, _ = instances.gen_gaussian_clusters(
                self.n, 1, 1, int(round(frac * self.n)), seed=(self.seed, 0, g)
            )
            self.instances[g] = np.sort(P[:, 0])

    def run_round(self, r: int) -> Round:
        g = r % len(self.regimes)
        x = self.instances[g]
        P = x.reshape(-1, 1)
        m = int(round(self.regimes[g] * self.n))
        rnd = Round(self.groups[g])
        builds = {
            eps: rnd.op("coreset_s", coreset1d.build_robust_1d_full, x, m, eps)
            for eps in self.eps_values
        }
        centers = rnd.op("eval_s", evaluation.draw_candidate_centers, P, 1, self.num_centers,
                         (self.seed, 1, g, 3))
        cost_P = rnd.op("eval_s", core.robust_cost_many, P, centers, 1, m)
        cost_S = {
            eps: rnd.op("eval_s", core.robust_cost_weighted_many, b.coreset, centers, 1, m)
            for eps, b in builds.items()
        }
        # The first few candidate centers, dealt out over the coresets.
        probe = [float(c) for c in centers[: self.misalignment_centers, 0, 0]]
        misalign = {
            eps: rnd.op("eval_s", evaluation.misalignment_check, x, b.buckets, b.coreset, m,
                        probe[j :: len(builds)])
            for j, (eps, b) in enumerate(builds.items())
        }
        median = rnd.op(None, solver.robust_median_1d, x, m)
        S = builds[self.solve_eps].coreset
        solve = rnd.op(None, solver.lloyd_with_outliers, S.points, 1, float(m), 1,
                       max_iters=20, seed=(self.seed, 1, g, 4), weights=S.weights)
        sol_cost = rnd.op(None, core.robust_cost, P, solve.centers, m)
        rnd.outputs.update(g=g, m=m, builds=builds, centers=centers, cost_P=cost_P,
                           cost_S=cost_S, misalign=misalign, median=median, solve=solve,
                           sol_cost=sol_cost)
        return rnd

    def check(self, rnd: Round) -> None:
        o = rnd.outputs
        x = self.instances[o["g"]]
        m, n = o["m"], self.n
        gaps = {}
        for eps, b in o["builds"].items():
            S = b.coreset
            check_coreset(rnd, S.points, S.weights, n, None, None, f"1-d eps={eps}")
            starts = np.array([bk.l for bk in b.buckets])
            ends = np.array([bk.r for bk in b.buckets])
            tiles = starts[0] == 0 and ends[-1] == n - 1 and np.all(starts[1:] == ends[:-1] + 1)
            rnd.expect(bool(tiles), f"1-d eps={eps}: buckets do not tile the input")
            if tiles:
                counts = ends - starts + 1
                means = np.add.reduceat(x, starts) / counts
                rnd.expect(np.array_equal(S.weights, counts.astype(float)), f"1-d eps={eps}: weights are not bucket counts")
                scale = max(1.0, float(np.max(np.abs(x))))
                rnd.expect(bool(np.all(np.abs(S.points[:, 0] - means) <= 1e-9 * scale)),
                           f"1-d eps={eps}: a row is not its bucket's mean")
            gaps[eps] = max_rel_gap(o["cost_S"][eps], o["cost_P"])
            rnd.expect(gaps[eps] <= eps, f"1-d eps={eps}: relative gap {gaps[eps]} exceeds eps")
            bound = eps * n / 4
            rnd.expect(o["misalign"][eps] <= bound, f"1-d eps={eps}: misalignment {o['misalign'][eps]} > {bound}")
            for t in sample_idx(self.num_centers, rnd.number):
                C = o["centers"][t]
                want = ref.weighted_robust_cost(S.points, S.weights, C, 1, m)
                rnd.expect(rel_close(o["cost_S"][eps][t], want), f"robust_cost_weighted_many (eps={eps}) at {t}")
        for t in sample_idx(self.num_centers, rnd.number):
            want = ref.robust_cost(x, o["centers"][t], 1, m)
            rnd.expect(rel_close(o["cost_P"][t], want), f"robust_cost_many at center {t}")
        opt, _ = ref.robust_median_1d(x, m)
        rnd.expect(rel_close(o["median"].cost, opt), f"robust_median_1d cost {o['median'].cost!r} != {opt!r}")
        S = o["builds"][self.solve_eps].coreset
        want = ref.weighted_robust_cost(S.points, S.weights, o["solve"].centers.centers, 1, m)
        rnd.expect(rel_close(o["solve"].cost, want), "coreset Lloyd cost != reference")
        sol_ref = ref.robust_cost(x, o["solve"].centers.centers, 1, m)
        rnd.expect(rel_close(o["sol_cost"], sol_ref), "robust_cost of the coreset solution")
        ratio = o["sol_cost"] / opt
        rnd.expect(ratio >= 1 - 1e-12, f"solution beats the exact optimum: ratio {ratio!r}")
        rnd.quality = {
            "coreset_rows": float(np.mean([len(b.coreset) for b in o["builds"].values()])),
            "rel_cost_gap": float(np.mean(list(gaps.values()))),
            "solution_cost_ratio": ratio,
        }
        rnd.extra = {f"rows.eps={eps}": len(b.coreset) for eps, b in o["builds"].items()}
        rnd.outputs = {}


class CliNd:
    """A CLI user's round trip on one generated Gaussian dataset.

    The dataset (generator seed 0) and every command's ``--seed`` (2)
    are fixed, not taken from the run's seed.  The solver's k-means++
    seeding leaves one center on a single far point for many datasets
    and seeds, and how long Lloyd then runs swung every timing here by
    15-25% from one generated dataset to the next: the work itself
    changes, so no number of passes averages it out.  On this dataset
    ``check-assumptions`` exits 3 (the fault) where the reference check
    at the generator's means passes; it is counted as failed in every
    round.
    """

    name = "cli-nd"
    n, d, k, m, z, size = 10_000, 10, 5, 100, 2, 500
    data_seed, solver_seed = 0, 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.groups = ["round"]
        self.data_csv = os.path.join(workdir, "data.csv")
        self.coreset_csv = os.path.join(workdir, "coreset.csv")

    def setup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "generate", "--family", "gauss", "--n", str(self.n), "--d", str(self.d),
                "--k", str(self.k), "--m", str(self.m), "--seed", str(self.data_seed),
                "--output", self.data_csv,
            ])
        if code != 0:
            raise RuntimeError(f"generate exited {code}")

    def verify_setup(self) -> list[str]:
        """Round-trip the written CSV and fix the expected exit code."""
        P, labels = instances.gen_gaussian_clusters(
            self.n, self.d, self.k, self.m, seed=self.data_seed
        )
        errors = []
        if not np.array_equal(np.loadtxt(self.data_csv, delimiter=",", comments="#"), P):
            errors.append("generated CSV does not round-trip to the generator's points")
        means = np.array([P[labels == j].mean(axis=0) for j in range(self.k)])
        self.rows = row_set_of(P)
        self.ref_cost = ref.robust_cost(P, means, self.z, self.m)
        report = ref.assumption_report(P, means, self.z, self.m, self.k)
        self.expected_check_exit = 0 if report["cond1"] and report["cond2"] else 3
        return errors

    def _cli(self, rnd: Round, kind, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rnd.op(kind, cli.main, argv)
        return code, out.getvalue()

    def run_round(self, r: int) -> Round:
        rnd = Round("round")
        common = ["--m", str(self.m), "--k", str(self.k), "--z", str(self.z)]
        seed = str(self.solver_seed)
        sized = ["--builder", "oursnd", "--size", str(self.size)]
        rnd.outputs["build"] = self._cli(rnd, "coreset_s", [
            "build", "--input", self.data_csv, "--output", self.coreset_csv,
            *sized, "--seed", seed, *common])
        rnd.outputs["eval"] = self._cli(rnd, "eval_s", [
            "eval", "--input", self.data_csv, *sized, "--trials", "3",
            "--centers", "100", "--seed", seed, *common])
        rnd.outputs["bench"] = self._cli(rnd, None, [
            "bench", "--input", self.data_csv, *sized, "--builder", "hllw25",
            "--seed", seed, *common])
        rnd.outputs["check"] = self._cli(rnd, None, [
            "check-assumptions", "--input", self.data_csv,
            "--seed", seed, *common])
        return rnd

    def check(self, rnd: Round) -> None:
        o = rnd.outputs
        code, out = o["build"]
        rnd.expect(code == 0, f"build exited {code}")
        arr = np.loadtxt(self.coreset_csv, delimiter=",", comments="#", skiprows=2, ndmin=2)
        check_coreset(rnd, arr[:, :-1], arr[:, -1], self.n, self.size, self.rows, "build CSV")
        match = re.search(r"built oursnd: (\d+) rows", out)
        rnd.expect(match is not None and int(match.group(1)) == len(arr), "build row count")

        code, out = o["eval"]
        rnd.expect(code == 0, f"eval exited {code}")
        trials = re.findall(r"^oursnd,\d+,(\d+),([^,]+),", out, flags=re.M)
        mean = re.search(r"mean error over 3 trials: (\S+)", out)
        errors = [float(e) for _, e in trials]
        rnd.expect(len(trials) == 3 and all(int(rows) <= self.size for rows, _ in trials),
                   "eval trial rows")
        rnd.expect(all(math.isfinite(e) and e >= 0 for e in errors), "eval errors not finite")
        rnd.expect(mean is not None and rel_close(float(mean.group(1)), float(np.mean(errors)), 1e-5),
                   "eval mean error")

        code, out = o["bench"]
        rnd.expect(code == 0, f"bench exited {code}")
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()
                if line.startswith(("oursnd,", "hllw25,"))}
        rnd.expect(set(rows) == {"oursnd", "hllw25"}, "bench rows")
        cost_S = float(rows["oursnd"][6]) if "oursnd" in rows else float("nan")
        rnd.expect(math.isfinite(cost_S) and cost_S > 0, "bench oursnd cost_S")
        # hllw25 keeps all m far points plus at least one near row.
        limits = {"oursnd": self.size, "hllw25": max(self.size, self.m + 1)}
        rnd.expect(all(int(v[1]) <= limits[tag] for tag, v in rows.items()), "bench rows over target")

        code, out = o["check"]
        if code != self.expected_check_exit:
            if self.expected_check_exit == 0 and code == 3:
                rnd.failed += 1
                rnd.known_faults.append("check-assumptions exited 3; the reference passes at the generator's means")
            else:
                rnd.expect(False, f"check-assumptions exited {code}, expected {self.expected_check_exit}")
        rnd.quality = {
            "coreset_rows": float(len(arr)),
            "rel_cost_gap": float(mean.group(1)) if mean else float("nan"),
            "solution_cost_ratio": cost_S / self.ref_cost,
        }
        rnd.outputs = {}


WORKLOADS = {w.name: w for w in (NdSweep, CliNd, Line1d)}
