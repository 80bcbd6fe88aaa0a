"""The benchmark's three workloads, generated from a seed.

Each workload is a list of CLI invocations ("ops") run in a closed loop
by one process, one op at a time, pass after pass. The seed draws shifts,
t values and cache records from the fixed pools below; op counts and
input sizes never depend on it, so every seed asks for the same work.
Every op carries its expected output, computed by `oracles`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

# Spans recorded inside pool worker processes stay in those processes.
POOL_NOTE = "spans inside the pool workers are not collected; search.search self time includes the wait"


@dataclass
class Op:
    """One CLI invocation and how to check what it prints.

    `expect` is either {"sha256": digest of the exact stdout} or a property
    check {"check": name, ...} that needs the stdout text.
    """

    kind: str
    argv: list[str]
    expect: dict
    note: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cache: str | None = None  # the --cache file, rewritten before every pass
    cache_seed: str = ""  # its contents at the start of every pass

    @property
    def kinds(self) -> list[str]:
        return list(dict.fromkeys(op.kind for op in self.ops))


def _exact(text: str) -> dict:
    return {"sha256": oracles.digest(text)}


# --- rows -------------------------------------------------------------------
# Why: the row solver (window and cutoff-row scans, equality_check,
# falling_factorial) and the CLI cache, with no resultant and no census
# tally. (1,1) to y=20000 crosses family member i=5, whose 9,688-digit
# value the CLI cannot print under the default int-to-string limit; that
# failure is counted. The intersect op spends its time in the y <= a
# cutoff rows of (63,3) and (64,4), which cross at (78,2): 3003 =
# C(78,2) = C(15,5) = C(14,6). The pool op repeats the cache op's search
# with two workers, so the two times show whether the pool pays. Every
# op takes about 0.3 s, so a run times each op many times.

# Degree-5 shifts with small a; each takes 0.3 s to y=15000 on 2 CPUs,
# within 4% of the other. Other small-a shifts differ by 10-70%.
ROW_SHIFTS = [(1, 4), (2, 3)]
ROW_Y_MAX = 15000
ROW_Y_JITTER = 100
INTERSECT = (63, 3, 64, 4, 80)
CACHE_TRIVIAL = 950  # trivial records of distinct shifts drawn from 1..40 x 1..40
CACHE_FAMILY = 4  # family members i <= 4; C(n+1,k+1) at i=5 exceeds the default int limit
CACHE_MAX_DEGREE = 250  # crossing records need falling factorials of length a+b


def _crossing_records() -> list[dict]:
    """Solutions read off the known repeated values: pairs of positions of one t."""
    out = []
    for t in oracles.KNOWN_REPEATS:
        occ = oracles.occurrences(t)
        for x, y in occ:
            for x2, y2 in occ:
                a, b = x - x2, y2 - y
                if a >= 1 and b >= 1 and a + b <= CACHE_MAX_DEGREE:
                    out.append(oracles.solution_record(a, b, x, y))
    return out


def rows(rng: random.Random, workdir: Path) -> Workload:
    a, b = rng.choice(ROW_SHIFTS)
    y_max = ROW_Y_MAX + rng.randrange(ROW_Y_JITTER)
    cache = str(workdir / "cache.jsonl")
    workers = min(2, len(os.sched_getaffinity(0)))
    shift = ["--a", str(a), "--b", str(b), "--y-max", str(y_max)]
    found = oracles.row_solutions(a, b, y_max)

    pool = [(p, q) for p in range(1, 41) for q in range(1, 41)]
    records = [oracles.solution_record(p, q, p + q, 0) for p, q in rng.sample(pool, CACHE_TRIVIAL)]
    for i in range(1, CACHE_FAMILY + 1):
        n, k = oracles.family_nk(i)
        records.append(oracles.solution_record(1, 1, n + 1, k + 1))
    records += _crossing_records()
    rng.shuffle(records)
    a1, b1, a2, b2, x_max = INTERSECT
    crossing = sorted(set(oracles.row_solutions(a1, b1, x_max)) & set(oracles.row_solutions(a2, b2, x_max)),
                      key=lambda p: (p[1], p[0]))

    ops = [
        Op("search", ["search", "--a", "1", "--b", "1", "--y-max", "20000"],
           _exact(oracles.search_text(oracles.family_solutions(20000)))),
        Op("search", ["search", *shift, "--cache", cache], _exact(oracles.search_text(found))),
        Op("intersect", ["intersect", "--a1", str(a1), "--b1", str(b1), "--a2", str(a2), "--b2", str(b2),
                         "--x-max", str(x_max)],
           _exact(oracles.intersect_text([(x, y) for x, y in crossing if x <= x_max]))),
        Op("search_pool", ["search", *shift, "--workers", str(workers)], _exact(oracles.search_text(found)),
           note=POOL_NOTE if workers > 1 else ""),
        Op("verify", ["verify", "--cache", cache], _exact(oracles.verify_text(len(records) + len(found)))),
    ]
    seed_text = "".join(json.dumps(r) + "\n" for r in records)
    return Workload("rows", ops, cache, seed_text)


# --- algebra ----------------------------------------------------------------
# Why: the polynomial kernel without search or census. Certificates of
# degree 8-9 spend their time in bipoly_resultant and unipoly_gcd; zeta
# at widths of 1e-600 and 1e-1000 is thousands of sign_at calls on big
# dyadic rationals; plot runs Sturm isolation for 301 sections and prints
# a large CSV. Degree 10 (1.1 s a certificate) is left out so that no op
# takes more than about 0.4 s and a run times each op many times.

# Two shifts of degree 9 and two of degree 8 per seed; each pool holds
# the shifts whose certificates cost within about 5% of each other
# (0.27 s and 0.075 s on 2 CPUs).
CERTIFY_POOLS = [
    ([(1, 8), (3, 6), (4, 5), (5, 4)], 2),
    ([(1, 7), (2, 6), (3, 5)], 2),
]
ZETA_SHIFTS = [(1, 11), (2, 10), (3, 9)]  # degree 12, 0.4 s each at 1e-600
PLOT = (3, 2, 0, 300)


def algebra(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for pool, count in CERTIFY_POOLS:
        for a, b in rng.sample(pool, count):
            ops.append(Op("certify", ["curve", "--a", str(a), "--b", str(b), "--certify"],
                          {"check": "certificate", "a": a, "b": b}))
    zeta = rng.choice(ZETA_SHIFTS)
    for (a, b), width in ((zeta, "1e-600"), ((1, 1), "1e-1000")):
        ops.append(Op("zeta", ["zeta", "--a", str(a), "--b", str(b), "--precision", width],
                      {"check": "zeta", "a": a, "b": b, "width": str(Fraction(width))}))
    a, b, y_lo, y_hi = PLOT
    ops.append(Op("plot", ["plot", "--a", str(a), "--b", str(b), "--y-min", str(y_lo), "--y-max", str(y_hi)],
                  {"check": "plot", "a": a, "b": b, "y_lo": y_lo, "y_hi": y_hi}))
    return Workload("algebra", ops)


# --- census -----------------------------------------------------------------
# Why: combinatorics.binomial used two ways. The scan to 3e10 tallies
# about a million small values in 0.7 s; the probes bisect
# columns with 20- to 40-digit targets; the family ops form a few huge
# values. family --i-max 5 prints a 9,688-digit value and fails under the
# default int-to-string limit; that failure is counted.

CENSUS_T_MAX = 3 * 10**10
CENSUS_T_JITTER = 10**7  # under 0.1% more rows
CENSUS_PROBE_DIGITS = [20 + (20 * j) // 31 for j in range(32)]  # 20 to 40 digits


def census(rng: random.Random, workdir: Path) -> Workload:
    t_max = CENSUS_T_MAX + rng.randrange(CENSUS_T_JITTER)
    ops = [Op("census_scan", ["census", "--t-max", str(t_max), "--m-min", "6"],
              _exact(oracles.census_scan_text(t_max, 6)))]
    probes = list(oracles.KNOWN_REPEATS)
    probes += [rng.randrange(10 ** (d - 1), 10**d) for d in CENSUS_PROBE_DIGITS]
    ops += [Op("census_t", ["census", "--t", str(t)], _exact(oracles.census_line(t))) for t in probes]
    ops += [Op("family", ["family", "--i-max", str(i)], _exact(oracles.family_text(i))) for i in (4, 5)]
    return Workload("census", ops)


BUILDERS = {"rows": rows, "algebra": algebra, "census": census}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
