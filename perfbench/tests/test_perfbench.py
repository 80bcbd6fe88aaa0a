"""Tests of the benchmark itself: seeded inputs, oracles and the tracer.

    python3 -m pytest perfbench/tests -q

The traced-versus-untraced test runs one untraced and one traced pass of
every workload, so the file takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads
import worker
from pascalrepeats import ShiftPair, brute_search

ROOT = Path(__file__).resolve().parents[2]


def package_bindings() -> dict[tuple[str, str], object]:
    """Every (namespace, attribute) -> object binding in the loaded package, and UniPoly.sign_at."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == tracer.PACKAGE or mod_name.startswith(tracer.PACKAGE + "."):
            for attr, obj in vars(module).items():
                out[(mod_name, attr)] = obj
    out[("UniPoly", "sign_at")] = vars(sys.modules["pascalrepeats.polynomials"].UniPoly)["sign_at"]
    return out


@contextlib.contextmanager
def unlimited_int_strings():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def build(name: str, seed: int, workdir: Path) -> workloads.Workload:
    with unlimited_int_strings():
        return workloads.build(name, seed, workdir)


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert worker.pascalrepeats.cli.main(list(argv)) == 0
    return out.getvalue()


def sizes(workload: workloads.Workload) -> list:
    """Per op: its kind, the degree of its shifts and the digit count of every other number."""
    shifts = {"--a", "--b", "--a1", "--b1", "--a2", "--b2"}
    out = []
    for op in workload.ops:
        flags = {}
        for flag, value in zip(op.argv, op.argv[1:] + [""]):
            if flag.startswith("--"):
                flags[flag] = value if value and not value.startswith("--") else None
        degree = sum(int(flags[f]) for f in shifts & flags.keys())
        rest = {f: len(v) if v and v.isdigit() else v for f, v in flags.items() if f not in shifts}
        out.append((op.kind, degree, rest))
    return out


# --- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_the_same_ops(name, tmp_path):
    assert build(name, 7, tmp_path) == build(name, 7, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_other_seed_draws_other_inputs_of_the_same_size(name, tmp_path):
    one, two = build(name, 1, tmp_path), build(name, 2, tmp_path)
    assert [op.argv for op in one.ops] != [op.argv for op in two.ops] or one.cache_seed != two.cache_seed
    assert sizes(one) == sizes(two)
    assert len(one.cache_seed.splitlines()) == len(two.cache_seed.splitlines())


# --- oracles ----------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 3), (3, 3), (6, 1), (11, 2), (63, 3), (64, 4), (104, 1)])
def test_row_oracle_matches_brute_search(a, b):
    x_max = 130
    expected = [(s.x, s.y) for s in brute_search(ShiftPair(a, b), x_max)]
    assert [(x, y) for x, y in oracles.row_solutions(a, b, x_max) if x <= x_max] == expected


def test_family_closed_form_matches_row_oracle():
    assert oracles.row_solutions(1, 1, 2000) == oracles.family_solutions(2000)


def test_known_repeats_are_complete_below_1e9():
    limit = 10**9
    interior = Counter()
    n = 4
    while math.comb(n, 2) <= limit:
        for k in range(2, n // 2 + 1):
            v = math.comb(n, k)
            if v > limit:
                break
            interior[v] += 1 if n == 2 * k else 2
        n += 1
    # the edge occurrences (t,1) and (t,t-1) add two
    found = {t: c + 2 for t, c in interior.items() if c + 2 >= 6}
    assert found == {t: c for t, c in oracles.KNOWN_REPEATS.items() if t <= limit}


def test_occurrences_of_known_repeats_match_their_multiplicity():
    for t, count in oracles.KNOWN_REPEATS.items():
        assert len(oracles.occurrences(t)) == count
        assert all(math.comb(n, k) == t for n, k in oracles.occurrences(t))


def test_certificate_check_accepts_the_cli_and_rejects_tampering():
    text = cli_stdout("curve", "--a", "2", "--b", "3", "--certify")
    assert oracles.check_certificate(text, 2, 3) is None
    assert oracles.check_certificate(text.replace("genus = 6", "genus = 5"), 2, 3) is not None
    assert oracles.check_certificate(text.replace("affine_nonsingular = yes", "affine_nonsingular = no"), 2, 3) is not None
    first = text.splitlines()[0]
    assert oracles.check_certificate(text.replace(first, first + " + 1"), 2, 3) is not None


def test_zeta_check_accepts_the_cli_and_rejects_tampering():
    text = cli_stdout("zeta", "--a", "2", "--b", "3", "--precision", "1e-40")
    width = Fraction(1, 10**40)
    assert oracles.check_zeta(text, 2, 3, width) is None
    assert oracles.check_zeta(text, 3, 2, width) is not None
    assert oracles.check_zeta(text, 2, 3, width / 10**10) is not None


def test_plot_check_accepts_the_cli_and_rejects_tampering():
    text = cli_stdout("plot", "--a", "3", "--b", "2", "--y-min", "0", "--y-max", "40")
    assert oracles.check_plot(text, 3, 2, 0, 40) is None
    lines = text.splitlines(keepends=True)
    assert oracles.check_plot("".join(lines[:-1]), 3, 2, 0, 40) is not None
    y, x = lines[-1].strip().split(",")
    nudged = f"{y},{Fraction(x) + Fraction(1, 10**11)}\n"
    assert oracles.check_plot("".join(lines[:-1]) + nudged, 3, 2, 0, 40) is not None


# --- timing -----------------------------------------------------------------


def timed_pass(op_times: list[float], references: list[float]) -> dict:
    return {"ops": [[t, 0, None, "", None] for t in op_times], "references": references}


def test_op_seconds_cancels_a_slow_phase():
    ref = run.REFERENCE_S
    fast = timed_pass([0.2, 0.5], [ref, ref, ref])
    slow = timed_pass([0.4, 1.0], [2 * ref, 2 * ref, 2 * ref])
    assert run.op_seconds([fast, slow, slow, fast]) == pytest.approx([0.2, 0.5])
    # a phase that ends while the op runs shows in the mean of the references around it
    changing = timed_pass([0.3, 0.5], [2 * ref, ref, ref])
    assert run.op_seconds([changing]) == pytest.approx([0.2, 0.5])


def test_op_seconds_takes_the_lower_quartile_over_passes():
    ref = run.REFERENCE_S
    passes = [timed_pass([t], [ref, ref]) for t in (1.0, 1.1, 1.2, 1.3, 5.0)]
    assert run.op_seconds(passes) == pytest.approx([1.1])


# --- tracer -----------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_it():
    targets = tracer.traced_targets()
    originals = {id(t[3]) for t in targets}
    before = package_bindings()
    patched = {k for k, obj in before.items() if id(obj) in originals}
    assert {("pascalrepeats", "search"), ("pascalrepeats.census", "search"),
            ("pascalrepeats.search", "binomial"), ("UniPoly", "sign_at")} <= patched
    t = tracer.Tracer()
    t.install()
    try:
        during = package_bindings()
        for key in before:
            if key in patched:
                assert during[key] is not before[key] and during[key].__wrapped__ is before[key], key
            else:
                assert during[key] is before[key], key
    finally:
        t.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_and_self_times_add_up():
    argv = [["search", "--a", "2", "--b", "1", "--y-max", "300"], ["curve", "--a", "2", "--b", "2", "--certify"],
            ["census", "--t-max", "1000000", "--m-min", "6"]]
    t = tracer.Tracer()
    layers, walls = [], []
    for _ in range(2):
        t.install()
        try:
            walls.append(sum(worker.run_op(a)[0] for a in argv))
        finally:
            t.uninstall()
        layers.append(t.reduce())
        t.clear()
    first, second = layers
    assert {k: v["calls"] for k, v in first.items()} == {k: v["calls"] for k, v in second.items()}
    assert first["cli.main"]["calls"] == 3 and first["search.search"]["rows"] == 301
    assert first["polynomials.bipoly_resultant"]["max_degree"] > 0
    self_total = sum(v["self_s"] for v in first.values())
    assert all(v["self_s"] >= 0 for v in first.values())
    assert 0 < self_total <= walls[0]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_and_untraced_passes_print_the_same(name, tmp_path, monkeypatch):
    wl = build(name, 3, tmp_path)
    spec = run.worker_spec(wl, 0, True, tmp_path / "result.json")
    before = package_bindings()
    snapshots = []
    real_run_op = worker.run_op

    def run_op(argv):
        snapshots.append(package_bindings())
        return real_run_op(argv)

    monkeypatch.setattr(worker, "run_op", run_op)
    plain, traced = worker.run(spec)["passes"]
    assert not plain["traced"] and traced["traced"]
    n = len(wl.ops)
    for snap in snapshots[:n]:
        assert all(snap[k] is before[k] for k in before)
    assert any(snapshots[n][k] is not before[k] for k in before)
    for op, p, t in zip(wl.ops, plain["ops"], traced["ops"]):
        assert p[1:4] == t[1:4], op.argv  # exit status, error and stdout digest


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)
