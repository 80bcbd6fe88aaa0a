"""One pass of every benchmark workload, graded by the benchmark's own grader.

The files under perfbench/ are read, never changed. Each workload is
built at seed 1 as perfbench/run.py builds it, with the int-to-string
limit lifted for its oracle strings, and its ops run once as
perfbench/worker.py runs them, under Python's default limit, with the
rows cache seeded first. Any op that fails or prints other bytes than
its oracle fails here, before a benchmark run would report it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _with_digit_limit(limit, fn, *args):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_one_benchmark_pass_is_graded_correct(name, tmp_path, capsys):
    workload = _with_digit_limit(0, workloads.build, name, 1, tmp_path)
    spec = run.worker_spec(workload, 0, False, tmp_path / "result.json")
    _, _, ops = _with_digit_limit(sys.int_info.default_max_str_digits, worker.run_pass, spec)
    correct, attempted, failed = run.grade(workload, [{"ops": ops}])
    assert (correct, attempted, failed) == (True, len(workload.ops), 0), capsys.readouterr().err
