"""Round loop, metric summaries and the run record behind ``run.py``."""

from __future__ import annotations

import os
import time

import numpy as np

from workloads import tally

END_TO_END = [
    ("setup_s", "s"),
    ("run_rel", "ref"),
    ("coreset_rel", "ref"),
    ("eval_rel", "ref"),
    ("coreset_rows", "rows"),
    ("peak_rss_mb", "MB"),
]
# Pass times in seconds, as measured: the run record keeps them.
SECONDS = ("run_s", "coreset_s", "eval_s")
# Quality figures: every run computes them, but they move with the seed
# by more than any bound allows, so the traced run reports them among
# the per-layer metrics instead of gating on them.
QUALITY = [
    ("quality.rel_cost_gap", "rel_cost_gap", "1"),
    ("quality.solution_cost_ratio", "solution_cost_ratio", "1"),
]


def machine(blas_threads: int) -> dict:
    """Core count, numpy version and BLAS of the measuring machine."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
    }


MIN_PASSES = 2

_REF_RNG = np.random.default_rng(20251028)
_REF_POINTS = _REF_RNG.normal(size=200_000)
_REF_CENTERS = _REF_RNG.normal(size=48)


def reference_work() -> float:
    """Seconds one fixed piece of work takes now.

    The host is shared, and the same pass can run a quarter slower for
    minutes at a time; no statistic over one run removes that.  This
    work slows with the host: it is timed between rounds, and each
    round's times are reported as multiples of the mean of its time
    just before and just after the round.  It uses nothing of the
    program and no BLAS (whose threads may still be spinning after a
    round): large temporaries, selection, a sort and an interpreted
    loop, the kinds of work the workloads do.
    """
    t0 = time.perf_counter()
    d = np.abs(np.subtract.outer(_REF_CENTERS, _REF_POINTS[:40_000]))
    np.partition(d, 30_000, axis=1)
    for c in _REF_CENTERS[:8]:
        np.cumsum(np.sort(np.abs(_REF_POINTS - c)))
    acc = 0.0
    for v in _REF_POINTS[:60_000].tolist():
        acc += v * v
    return time.perf_counter() - t0


def run_rounds(wl, count: int | None, seconds: float):
    """Rounds 0, 1, ...: `count` of them, or else whole passes, at least
    MIN_PASSES, until `seconds` of timed work.

    Returns the checked rounds and their total program time.
    """
    rounds, refs, timed = [], [], 0.0
    per_pass = len(wl.groups)
    reference_work()  # the first call pays for first-touch allocations

    def more() -> bool:
        if count is not None:
            return len(rounds) < count
        if len(rounds) % per_pass:
            return True
        return len(rounds) // per_pass < MIN_PASSES or timed < seconds

    while more():
        refs.append(reference_work())
        rnd = wl.run_round(len(rounds))
        rnd.number = len(rounds)
        timed += sum(dt for _, dt in rnd.op_times)
        wl.check(rnd)
        rounds.append(rnd)
    refs.append(reference_work())
    for rnd, before, after in zip(rounds, refs, refs[1:]):
        rnd.ref_s = (before + after) / 2
    return rounds, timed


def summarise(rounds) -> dict:
    """End-to-end figures of one pass.

    Every pass repeats the same calls, so each call's time is its
    median over the passes, in seconds and as a multiple of the
    reference work timed around its round.  The median, not the
    minimum: on a shared host the same call runs up to a third faster
    now and then, and how often a run catches such a moment varies far
    more from run to run than its middle does.  These are summed by
    kind over one pass; the other figures, equal in every pass, are
    averaged over the groups.
    """
    groups: dict = {}
    for rnd in rounds:
        groups.setdefault(rnd.group, []).append(rnd)
    seconds, relative = [], []
    for g in groups.values():
        for calls in zip(*(x.op_times for x in g)):
            kind = calls[0][0]
            seconds.append((kind, float(np.median([dt for _, dt in calls]))))
            relative.append((kind, float(np.median([dt / x.ref_s for (_, dt), x in zip(calls, g)]))))
    out = {key: tally(seconds)[key] for key in SECONDS}
    out.update({key.replace("_s", "_rel"): value for key, value in tally(relative).items()})
    out["ref_s"] = float(np.median([x.ref_s for x in rounds]))
    for key in ("coreset_rows", "rel_cost_gap", "solution_cost_ratio"):
        out[key] = float(np.mean([g[0].quality[key] for g in groups.values()]))
    return out


def record(args, import_s, imports, setup_times, prep_s, metrics, result, errors, rounds) -> dict:
    """The full run record written next to the printed result."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.blas_threads),
        "import_s": import_s,
        "import_times": imports,
        "setup_times": setup_times,
        "prep_s": prep_s,
        "end_to_end": metrics,
        "result": result,
        "errors": errors[:50],
        "rounds": [
            {"group": x.group, "times": x.times, "ref_s": x.ref_s, "quality": x.quality,
             "extra": x.extra, "known_faults": x.known_faults}
            for x in rounds
        ],
    }
