"""The workload process: imports pascalrepeats once, then runs CLI ops in a closed loop.

    python3 worker.py SPEC.json     run the passes the spec describes
    python3 worker.py --import-only print the import time of pascalrepeats

The import is timed first, before this file imports anything else the
package might share. Each op calls `pascalrepeats.cli.main(argv)` with
stdout and stderr captured; a pass runs every op once, and times a fixed
reference computation before each op and after the last, so that the
launcher can tell how fast the host ran around each op. Passes repeat
while the next one is expected to end within the spec's time budget.
In a traced run, untraced and traced passes alternate. The process keeps
Python's default int-to-string limit, so results leave it only as
digests, plus the text of ops whose check needs it.
"""

import sys
import time

_t0 = time.perf_counter()
import pascalrepeats.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from tracer import Tracer  # noqa: E402


REFERENCE_REPS = 3  # reference runs at each point; the fastest is kept


def reference() -> Fraction:
    """Fixed interpreted work that does not touch the package: exact
    fractions and binomials, the kind of arithmetic the package does.
    Its fastest run takes 1.0 ms on the baseline machine."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i * i + 1)
    for n in range(200, 230):
        for k in range(2, 40, 3):
            total += math.comb(n, k) % 97
    return total


def run_op(argv: list[str]) -> tuple[float, int | None, str | None, str]:
    """(seconds, exit status or None if it raised, error, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pascalrepeats.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op's failure is a measured outcome, not a harness error
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rc not in (0, None) and error is None:
        error = err.getvalue().strip()[:300]
    return seconds, rc, error, out.getvalue()


def time_reference() -> float:
    best = math.inf
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(spec: dict) -> tuple[float, list[float], list]:
    """(wall time, reference times, per-op results) of one pass.

    Reference i is timed just before op i; the last one after the last op.
    """
    if spec["cache"] is not None:
        with open(spec["cache"], "w", encoding="utf-8") as fh:
            fh.write(spec["cache_seed"])
    raw = []
    start = time.perf_counter()
    references = [time_reference()]
    for op in spec["ops"]:
        raw.append(run_op(op["argv"]))
        references.append(time_reference())
    wall = time.perf_counter() - start
    results = []
    for op, (seconds, rc, error, text) in zip(spec["ops"], raw):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        results.append([seconds, rc, error, digest, text if op["keep_text"] else None])
    return wall, references, results


def run(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, references, results = run_pass(spec)
        finally:
            if traced:
                tracer.uninstall()
        layers = None
        if traced:
            layers = tracer.reduce()
            tracer.clear()
        passes.append({"traced": traced, "wall": wall, "references": references, "ops": results, "layers": layers})
        kinds = {p["traced"] for p in passes}
        if tracer is not None and len(kinds) < 2:
            continue
        longest = max(p["wall"] for p in passes)
        if time.perf_counter() - start + longest > spec["seconds"]:
            break
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"import_s": IMPORT_S, "peak_rss_kb": rss_self + rss_children, "passes": passes}


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        print(repr(IMPORT_S))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
