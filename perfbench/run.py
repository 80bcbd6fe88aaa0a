"""pascalrepeats benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rows --seed 1 --seconds 40 --trace 0

Run from the repository root. This process builds the seeded inputs and
the expected outputs (see `workloads` and `oracles`), times the package
import in fresh processes, then starts `worker.py`, which imports
pascalrepeats from `src/` and runs the ops in a closed loop. Every op's
output is checked here. The last stdout line is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones from a run in which
traced and untraced passes alternate.

An op fails if it raises, exits nonzero or prints something other than
its oracle; `correct` is false only if an op that exited 0 printed a
wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_PROBES = 12  # fresh processes that only time the import, plus the worker's own
# Fastest run of worker.reference() on the baseline machine (BASELINE.json).
# Op times are scaled by this over the reference times around the op, so
# that they read as seconds on that machine at full speed.
REFERENCE_S = 0.001
DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
]

# Op kinds, timed in the untraced passes of a traced run.
OP_KINDS = ["search", "search_pool", "intersect", "verify", "certify", "zeta", "plot",
            "census_scan", "census_t", "family"]

# (function, statistics) reported from the traced passes.
LAYER_STATS = [
    ("search.search", ("calls", "self_s")),
    ("search.equality_check", ("calls", "self_s", "hit_ratio")),
    ("search.candidate_window", ("calls",)),
    ("combinatorics.falling_factorial", ("calls", "self_s")),
    ("ratios.isolate_zeta", ("calls", "self_s")),
    ("polynomials.UniPoly.sign_at", ("calls", "self_s")),
    ("polynomials.bipoly_resultant", ("calls", "self_s", "max_degree", "max_coeff_bits")),
    ("polynomials.unipoly_gcd", ("calls", "self_s")),
    ("curves.build_curve", ("self_s",)),
    ("curves.affine_singular_check", ("self_s",)),
    ("curves.infinity_singular_check", ("self_s",)),
    ("curves.certify", ("self_s",)),
    ("polynomials.isolate_real_roots", ("calls", "self_s", "roots")),
    ("curves.real_branches", ("self_s",)),
    ("census.scan_high_multiplicity", ("self_s",)),
    ("census.multiplicity", ("calls", "self_s")),
    ("census.intersect_curves", ("self_s",)),
    ("combinatorics.binomial", ("calls", "self_s", "max_bits")),
    ("cli.dispatch", ("self_s",)),
    ("cli.append_solutions", ("self_s",)),
    ("cli.read_solutions", ("self_s",)),
]
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "max_degree": ("count", "lower"),
    "max_coeff_bits": ("bits", "lower"),
    "roots": ("count", "lower"),
    "max_bits": ("bits", "lower"),
}

PER_LAYER = (
    [(f"{fn}.{stat}", *STAT_UNITS[stat]) for fn, stats in LAYER_STATS for stat in stats]
    + [("search.rows", "count", "lower")]
    + [(f"{kind}_s", "s", "lower") for kind in OP_KINDS]
    + [("fail_frac", "fraction", "lower"), ("trace.overhead_s", "s", "lower")]
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Environment for the processes that import pascalrepeats from the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def time_imports() -> list[float]:
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--import-only"], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout))
    return out


def worker_spec(workload: workloads.Workload, seconds: float, trace: bool, result: Path) -> dict:
    return {
        "ops": [{"argv": op.argv, "keep_text": "check" in op.expect} for op in workload.ops],
        "cache": workload.cache,
        "cache_seed": workload.cache_seed,
        "seconds": seconds,
        "trace": trace,
        "result": str(result),
    }


def run_worker(workload: workloads.Workload, seconds: float, trace: bool, workdir: Path, deadline: float) -> dict:
    spec = worker_spec(workload, seconds, trace, workdir / "result.json")
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # its own process group, so that a timeout also stops the search pool's workers
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload process ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process failed: {stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def check_text(expect: dict, text: str) -> str | None:
    kind = expect["check"]
    if kind == "certificate":
        return oracles.check_certificate(text, expect["a"], expect["b"])
    if kind == "zeta":
        return oracles.check_zeta(text, expect["a"], expect["b"], Fraction(expect["width"]))
    if kind == "plot":
        return oracles.check_plot(text, expect["a"], expect["b"], expect["y_lo"], expect["y_hi"])
    raise BenchError(f"unknown check {kind!r}")


def grade(workload: workloads.Workload, passes: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every op of every pass; reports each problem once."""
    correct, attempted, failed = True, 0, 0
    verdicts: dict[tuple[int, str], str | None] = {}
    reported = set()
    for p in passes:
        for i, (op, (seconds, rc, error, digest, text)) in enumerate(zip(workload.ops, p["ops"])):
            attempted += 1
            if rc != 0:
                problem, wrong = f"failed: {error}", False
            else:
                if (i, digest) not in verdicts:
                    if "sha256" in op.expect:
                        verdicts[i, digest] = None if digest == op.expect["sha256"] else "output differs from the oracle"
                    else:
                        try:
                            verdicts[i, digest] = check_text(op.expect, text)
                        except (ValueError, KeyError, ZeroDivisionError) as exc:
                            verdicts[i, digest] = f"unparseable output: {exc!r}"[:300]
                problem, wrong = verdicts[i, digest], True
            if problem is None:
                continue
            failed += 1
            correct = correct and not wrong
            if (i, problem) not in reported:
                reported.add((i, problem))
                print(f"{workload.name} op {i} ({op.kind}): {problem}", file=sys.stderr)
    return correct, attempted, failed


def op_seconds(passes: list[dict]) -> list[float]:
    """Each op's time at the reference speed, over the passes.

    A shared host runs the same code up to twice as slowly, in phases of
    seconds to minutes. An op's time divided by the mean of the reference
    times just before and after it cancels most of the phase it ran in;
    the lower quartile of that ratio over the passes drops the phases
    that changed while the op ran.
    """
    out = []
    for i in range(len(passes[0]["ops"])):
        ratios = [2 * p["ops"][i][0] / (p["references"][i] + p["references"][i + 1]) for p in passes]
        low = statistics.quantiles(ratios, n=4, method="inclusive")[0] if len(ratios) > 1 else ratios[0]
        out.append(REFERENCE_S * low)
    return out


def kind_seconds(workload: workloads.Workload, passes: list[dict]) -> dict[str, float]:
    """Each op kind's summed time at the reference speed."""
    seconds = op_seconds(passes)
    return {kind: sum(t for op, t in zip(workload.ops, seconds) if op.kind == kind) for kind in workload.kinds}


def layer_metrics(workload: workloads.Workload, result: dict, attempted: int, failed: int) -> dict[str, float]:
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    first = traced[0]["layers"]
    if any(p["layers"][fn]["calls"] != first[fn]["calls"] for p in traced for fn in first):
        print("warning: call counts differ between traced passes", file=sys.stderr)
    values: dict[str, float] = {}
    for fn, stats in LAYER_STATS:
        for stat in stats:
            if stat == "calls":
                value = first[fn]["calls"]
            elif stat == "self_s":
                value = statistics.median(p["layers"][fn]["self_s"] for p in traced)
            elif stat == "hit_ratio":
                value = first[fn].get("hits", 0) / first[fn]["calls"] if first[fn]["calls"] else 0.0
            else:
                value = first[fn].get(stat, 0)
            values[f"{fn}.{stat}"] = value
    values["search.rows"] = first["search.search"].get("rows", 0)
    kinds = kind_seconds(workload, plain)
    for kind in OP_KINDS:
        values[f"{kind}_s"] = kinds.get(kind, 0.0)
    values["fail_frac"] = failed / attempted
    values["trace.overhead_s"] = sum(op_seconds(traced)) - sum(op_seconds(plain))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "pascalrepeats" / "__init__.py").is_file():
        print(f"error: no pascalrepeats package under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # oracle strings only; the worker keeps the default
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        for i, op in enumerate(workload.ops):
            if op.note and args.trace:
                print(f"{workload.name} op {i} ({op.kind}): {op.note}", file=sys.stderr)
        imports = [] if args.trace else time_imports()
        result = run_worker(workload, args.seconds, bool(args.trace), workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    correct, attempted, failed = grade(workload, result["passes"])
    if args.trace:
        values = layer_metrics(workload, result, attempted, failed)
        specs = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(imports + [result["import_s"]]),
            "wall_s": sum(op_seconds(result["passes"])),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        specs = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
