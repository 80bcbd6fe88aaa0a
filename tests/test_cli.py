import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pascalrepeats import census as census_mod
from pascalrepeats import cli as cli_mod
from pascalrepeats import curves as curves_mod
from pascalrepeats import polynomials as polynomials_mod
from pascalrepeats import ratios as ratios_mod
from pascalrepeats.cli import (
    _decimal_fixed,
    _rational,
    append_solutions,
    build_parser,
    dispatch,
    main,
    read_solutions,
)
from pascalrepeats.errors import CacheError, PreconditionError
from pascalrepeats.polynomials import BiPoly
from pascalrepeats.ratios import ShiftPair
from pascalrepeats.search import FamilyMember, search

search_mod = importlib.import_module("pascalrepeats.search")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(build_parser().parse_args(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# exit 0, exit 1 (a domain error), exit 2 (usage) and --help, which exits 0 from argparse
REUSE_ARGV = [
    ["census", "--t", "120"],
    ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "3", "--y-step", "1/2"],
    ["zeta", "--a", "0", "--b", "1"],
    ["family", "--i-max", "99"],
    ["zeta", "--a", "1"],
    ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "3", "--y-step", "x"],
    ["--help"],
    ["plot", "--help"],
]


def test_a_reused_parser_answers_like_a_fresh_one(capsys):
    def answer(parse_and_run):
        try:
            code = parse_and_run()
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = [answer(lambda: dispatch(build_parser.__wrapped__().parse_args(argv))) for argv in REUSE_ARGV]
    assert [code for code, _, _ in fresh] == [0, 0, 1, 1, 2, 2, 0, 0]
    assert main(["census", "--t", "120"]) == 0 and build_parser() is build_parser()
    capsys.readouterr()
    for _ in range(2):
        assert [answer(lambda: main(argv)) for argv in REUSE_ARGV] == fresh


def test_parse_config_search():
    ns = build_parser().parse_args(["search", "--a", "2", "--b", "3", "--y-max", "40", "--workers", "2"])
    assert ns.command == "search"
    assert (ns.a, ns.b, ns.y_max, ns.workers) == (2, 3, 40, 2)
    assert ns.format == "text"


def test_parse_config_intersect_maps_two_shifts():
    ns = build_parser().parse_args(
        ["intersect", "--a1", "104", "--b1", "1", "--a2", "110", "--b2", "2", "--x-max", "200"]
    )
    assert (ns.a1, ns.b1, ns.a2, ns.b2, ns.x_max) == (104, 1, 110, 2, 200)


def test_parse_config_plot_uses_y_range():
    ns = build_parser().parse_args(["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "5"])
    assert (ns.y_min, ns.y_max) == (0, 5)
    assert ns.format == "csv"
    assert ns.y_step == Fraction(1)


def test_parse_config_precision_accepts_scientific_and_rational():
    ns = build_parser().parse_args(["zeta", "--a", "1", "--b", "1", "--precision", "1e-9"])
    assert ns.precision == Fraction(1, 10**9)
    ns = build_parser().parse_args(["zeta", "--a", "1", "--b", "1", "--precision", "1/128"])
    assert ns.precision == Fraction(1, 128)


def test_unknown_command_or_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["zeta", "--a", "1", "--b", "1", "--nope"])
    assert exc.value.code == 2


def test_run_config_validation():
    assert main(["search", "--a", "1", "--b", "1", "--y-max", "5", "--workers", "0"]) == 1
    assert main(["zeta", "--a", "1", "--b", "1", "--precision", "0"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--a", "1", "--b", "1", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--a", "1", "--b", "1", "--precision", "abc"],
        ["zeta", "--a", "1", "--b", "1", "--precision", ""],
        ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--precision", "1/0"],
        ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--y-step", "x"],
    ],
)
def test_unparseable_rational_is_a_usage_error(argv, capsys):
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: cannot parse {argv[-1]!r} as a rational" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text", ["1e-100001", "1e100001", "1e-10000000", "1e-999999999999", "0.5e-100000", "123e99999"]
)
def test_decimal_exponent_beyond_the_bound_is_a_usage_error(text, capsys):
    argv = ["zeta", "--a", "1", "--b", "1", "--precision", text]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --precision: {text!r} has a decimal exponent beyond +-100000" in captured.err


def test_decimal_exponent_at_the_bound_is_accepted():
    parse = build_parser().parse_args
    assert parse(["zeta", "--a", "1", "--b", "1", "--precision", "1e-100000"]).precision == Fraction(1, 10**100000)
    assert parse(["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--y-step", "1e100000"]).y_step == (
        10**100000
    )


@pytest.mark.parametrize(
    "step,sections,per_section",
    [("1e-6", 1_000_001, 207), ("1/1000000", 1_000_001, 207), ("1e-9", 1_000_000_001, 217)],
)
def test_plot_refuses_more_than_a_million_sections_before_any_work(step, sections, per_section, monkeypatch):
    # every section is estimated at 200 us or more, so the time estimate alone refuses them
    monkeypatch.setattr(curves_mod, "real_branches", lambda *a, **k: pytest.fail("isolated a section"))
    code, out, err = run_cli(["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--y-step", step])
    assert (code, out) == (1, "")
    estimate = f"{sections} section(s) at {per_section} us each"
    assert err == f"error: plot's estimated time, {estimate}, is more than 2000000 us\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--a", "1", "--b", "1", "--precision", "0"],
        ["zeta", "--a", "1", "--b", "1", "--precision", "-0.5"],
        ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--precision", "0"],
        ["search", "--a", "1", "--b", "1", "--y-max", "5", "--workers", "0"],
        ["search", "--a", "1", "--b", "1", "--y-max", "5", "--workers", "-3"],
    ],
)
def test_nonpositive_precision_or_workers_is_a_domain_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# command output
# ---------------------------------------------------------------------------


def test_zeta_json_output():
    code, out, err = run_cli(
        ["zeta", "--a", "1", "--b", "1", "--precision", "1e-16", "--format", "json"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["a"] == 1 and doc["b"] == 1
    assert doc["decimal"] == "1.61803398874989"
    lo = Fraction(doc["lo"])
    hi = Fraction(doc["hi"])
    assert lo < hi and hi - lo <= Fraction(1, 10**16)


def test_zeta_text_output_shape():
    code, out, _ = run_cli(["zeta", "--a", "2", "--b", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lo = ")
    assert lines[1].startswith("hi = ")
    assert lines[2].startswith("decimal = 2.14789903")


def test_search_json_schema():
    code, out, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "50", "--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert [d["x"] for d in docs] == ["2", "15", "104"]
    for d in docs:
        assert set(d) == {"a", "b", "x", "y", "value", "trivial"}
        assert isinstance(d["a"], int) and isinstance(d["b"], int)
        assert isinstance(d["x"], str) and d["x"].isdigit()
        assert isinstance(d["y"], str) and isinstance(d["value"], str)
        assert isinstance(d["trivial"], bool)


def test_search_csv_output():
    code, out, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "10", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,x,y,value,trivial"
    assert "1,1,15,5,3003,false" in lines


def test_search_text_output():
    code, out, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "10"])
    assert code == 0
    assert "x=15 y=5 value=3003" in out
    assert "x=2 y=0 value=1 (trivial)" in out
    assert out.rstrip().endswith("2 solution(s)")


def test_family_formats():
    code, out, _ = run_cli(["family", "--i-max", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "i,n,k,value"
    assert out.splitlines()[1] == "1,14,4,3003"
    code, out, _ = run_cli(["family", "--i-max", "1", "--format", "json"])
    docs = json.loads(out)
    assert docs[0] == {"i": 1, "n": "14", "k": "4", "value": "3003"}


def test_family_index_is_bounded_before_any_member_is_formed(monkeypatch):
    formed = []
    monkeypatch.setattr(cli_mod, "family_member", lambda i: formed.append(i) or FamilyMember(i, 0, 0, 0))
    code, out, err = run_cli(["family", "--i-max", "7"])
    assert (code, out, formed) == (1, "", [])
    assert err == "error: family --i-max is at most 6, got 7\n"
    assert run_cli(["family", "--i-max", str(10**9)])[0] == 1 and formed == []
    code, out, err = run_cli(["family", "--i-max", "6"])
    assert (code, err, formed) == (0, "", [1, 2, 3, 4, 5, 6])


def test_curve_text_and_certificate():
    code, out, _ = run_cli(["curve", "--a", "1", "--b", "1"])
    assert code == 0
    assert "F(x,y) = x^2 - 3*x*y + y^2 - 2*x + y" in out
    assert "finiteness = InfiniteFamily" in out
    code, out, _ = run_cli(["curve", "--a", "2", "--b", "2", "--certify", "--format", "json"])
    doc = json.loads(out)
    assert doc["genus"] == 3
    assert doc["affine_nonsingular"] == "yes"
    assert doc["infinity_nonsingular"] == "yes"


def test_curve_certify_refuses_a_degree_beyond_the_bound_before_any_work(monkeypatch):
    monkeypatch.setattr(curves_mod, "build_curve", lambda shift: pytest.fail("built a curve"))
    for fmt in ("text", "json"):
        code, out, err = run_cli(["curve", "--a", "8", "--b", "8", "--certify", "--format", fmt])
        assert (code, out) == (1, "")
        assert err == "error: curve --certify needs a+b <= 15, got 16\n"


def test_curve_refuses_a_degree_beyond_the_bound_before_any_work(monkeypatch):
    def reached(shift):
        raise PreconditionError(f"built a curve of degree {shift.degree}")

    monkeypatch.setattr(curves_mod, "build_curve", reached)
    for argv in (["--a", "80", "--b", "81"], ["--a", "1", "--b", "160", "--format", "json"]):
        assert run_cli(["curve", *argv]) == (1, "", "error: curve needs a+b <= 160, got 161\n")
    assert run_cli(["curve", "--a", "80", "--b", "80"]) == (1, "", "error: built a curve of degree 160\n")


def test_zeta_refuses_a_degree_beyond_the_bound_before_any_work(monkeypatch):
    def reached(shift):
        raise PreconditionError(f"formed zeta_poly of degree {shift.degree}")

    monkeypatch.setattr(ratios_mod, "zeta_poly", reached)
    for argv in (["--a", "80", "--b", "81"], ["--a", "160", "--b", "1", "--format", "json"]):
        assert run_cli(["zeta", *argv]) == (1, "", "error: zeta needs a+b <= 160, got 161\n")
    assert run_cli(["zeta", "--a", "80", "--b", "80"]) == (1, "", "error: formed zeta_poly of degree 160\n")


def test_plot_refuses_a_degree_beyond_the_bound_before_any_work(monkeypatch):
    def reached(shift):
        raise PreconditionError(f"built a curve of degree {shift.degree}")

    monkeypatch.setattr(curves_mod, "build_curve", reached)
    window = ["--y-min", "0", "--y-max", "0"]
    for argv in (["--a", "20", "--b", "21"], ["--a", "1", "--b", "40", "--format", "json"]):
        assert run_cli(["plot", *argv, *window]) == (1, "", "error: plot needs a+b <= 40, got 41\n")
    assert run_cli(["plot", "--a", "20", "--b", "20", *window]) == (1, "", "error: built a curve of degree 40\n")


def test_plot_refuses_a_section_height_beyond_the_work_bound_before_any_work(monkeypatch, capsys):
    def reached(shift):
        raise PreconditionError(f"built a curve of degree {shift.degree}")

    monkeypatch.setattr(curves_mod, "build_curve", reached)
    shift = ["plot", "--a", "20", "--b", "20"]
    # (a+b)^2 * bits(max(|y_min|, |y_max|, 1) * step denominator): 1600 * 6 passes, 1600 * 7 does not;
    # one section each, as at 1600 * 6 two sections pass the time estimate no more
    for window in (["63", "63", "1"], ["-63", "-63", "1"], ["1", "1", "1/32"], ["1", "1", "0.03125"]):
        argv = [*shift, "--y-min", window[0], "--y-max", window[1], "--y-step", window[2]]
        assert run_cli(argv) == (1, "", "error: built a curve of degree 40\n"), window
    refused = ((["0", "64", "1"], 7), (["-64", "0", "1"], 7), (["0", "1", "1/64"], 7), (["5", "5", "3/64"], 9))
    for window, bits in refused:
        argv = [*shift, "--y-min", window[0], "--y-max", window[1], "--y-step", window[2]]
        message = f"error: plot needs (a+b)^2 * bits(max |y| * step denominator) <= 10000, got 40^2 * {bits}\n"
        assert run_cli(argv) == (1, "", message), window
    with pytest.raises(SystemExit):
        main(["plot", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(a+b)^2 * bits(max(|y_min|, |y_max|, 1) * q) must be at most 10000" in help_text


def test_plot_refuses_a_plot_beyond_its_time_estimate_before_any_section(monkeypatch, capsys):
    def isolated(*args, **kwargs):
        pytest.fail("isolated a section")

    monkeypatch.setattr(curves_mod, "real_branches", isolated)
    # (1,1) on y = 0..N: a section's estimate is 200 + 2^4/8 + isqrt((4 * bits(N)/40)^5) + (2 * 44/256)^2 us
    refused = [
        (["--y-min", "0", "--y-max", "9803"], 9804, 204),
        (["--y-min", "0", "--y-max", "1", "--y-step", "1/99999"], 100000, 205),
        (["--y-min", "0", "--y-max", "999999"], 1000000, 207),
        (["--y-min", "5", "--y-max", "5", "--precision", "1e-100000"], 1, 6735565),
    ]
    for window, sections, per_section in refused:
        assert run_cli(["plot", "--a", "1", "--b", "1", *window]) == (
            1,
            "",
            f"error: plot's estimated time, {sections} section(s) at {per_section} us each, is more than 2000000 us\n",
        ), window
    assert run_cli(["plot", "--a", "20", "--b", "20", "--y-min", "62", "--y-max", "63"]) == (
        1, "", "error: plot's estimated time, 2 section(s) at 1212582 us each, is more than 2000000 us\n"
    )
    assert cli_mod._section_microseconds(2, 4 * 14, 44) == 204  # y = 0..9803: bits 14

    monkeypatch.setattr(curves_mod, "real_branches", lambda shift, ys, width: iter([]))
    for window in (["0", "9802", "1"], ["-3", "3", "1/1000"], ["63", "63", "1"]):
        argv = ["--y-min", window[0], "--y-max", window[1], "--y-step", window[2]]
        shift = ["--a", "20", "--b", "20"] if window[0] == "63" else ["--a", "1", "--b", "1"]
        assert run_cli(["plot", *shift, *argv]) == (0, "y,x\n", ""), window
    with pytest.raises(SystemExit):
        main(["plot", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "sections * (200 + d^4/8 + (W/40)^2.5 + (d*p/256)^2) microseconds, is more than 2 s" in help_text


def test_zeta_refuses_a_precision_beyond_the_work_bound_before_isolating(monkeypatch, capsys):
    def isolated(shift, eps):
        raise PreconditionError(f"isolated zeta of ({shift.a},{shift.b})")

    monkeypatch.setattr(cli_mod, "isolate_zeta", isolated)
    # (a+b) * bits(1/precision) <= 1000000; 1e-100000 has 332193 bits, 1e-12 40
    for a, b, precision in ((1, 1, "1e-100000"), (80, 80, "1e-1881"), (80, 80, "1e-12"), (1, 1, "3")):
        assert run_cli(["zeta", "--a", str(a), "--b", str(b), "--precision", precision]) == (
            1, "", f"error: isolated zeta of ({a},{b})\n"
        ), precision
    refused = (
        (20, 20, "1e-100000", "40 * 332193"),
        (80, 80, "1e-1882", "160 * 6252"),
        (2, 2, "1e-75258", "4 * 250002"),
    )
    for a, b, precision, work in refused:
        assert run_cli(["zeta", "--a", str(a), "--b", str(b), "--precision", precision]) == (
            1, "", f"error: zeta needs (a+b) * bits(1/precision) <= 1000000, got {work}\n"
        ), precision
    # at the bound itself, past the parser's decimal exponents: 2 * 500000 passes, 2 * 500001 does not
    refusal = "zeta needs (a+b) * bits(1/precision) <= 1000000, got 2 * 500001"
    for bits, message in ((500000, "isolated zeta of (1,1)"), (500001, refusal)):
        args = build_parser().parse_args(["zeta", "--a", "1", "--b", "1"])
        args.precision = Fraction(1, 2 ** (bits - 1))
        err = io.StringIO()
        assert dispatch(args, io.StringIO(), err) == 1
        assert err.getvalue() == f"error: {message}\n", bits
    with pytest.raises(SystemExit):
        main(["zeta", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "with (a+b) * bits(1/precision) at most 1000000" in help_text


def test_search_refuses_a_y_max_beyond_the_work_bound_before_any_row(monkeypatch, capsys):
    def reached(shift, y_max):
        raise PreconditionError(f"searched ({shift.a},{shift.b})")

    monkeypatch.setattr(cli_mod, "search", reached)
    # (a+b) * bits(y_max) <= 2048
    for a, b, y_max in ((7, 1, (1 << 256) - 1), (34, 34, (1 << 30) - 1), (1, 2047, 1)):
        assert run_cli(["search", "--a", str(a), "--b", str(b), "--y-max", str(y_max)]) == (
            1, "", f"error: searched ({a},{b})\n"
        )
    refused = ((8, 1, (1 << 256) - 1, "9 * 256"), (34, 34, 1 << 30, "68 * 31"), (200000, 1, 1, "200001 * 1"))
    for a, b, y_max, work in refused:
        assert run_cli(["search", "--a", str(a), "--b", str(b), "--y-max", str(y_max)]) == (
            1, "", f"error: (a+b) * bits(y_max) must be at most 2048, got {work}\n"
        )
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "with (a+b) * bits(y_max) <= 2048" in " ".join(capsys.readouterr().out.split())


def test_intersect_refuses_an_x_max_beyond_either_shifts_work_bound_before_any_row(monkeypatch):
    monkeypatch.setattr(cli_mod.census_mod, "intersect_curves", lambda s1, s2, x_max: [(x_max, 0)])
    pair = ["intersect", "--a1", "63", "--b1", "3", "--a2", "64", "--b2", "4"]
    code, out, _ = run_cli([*pair, "--x-max", str((1 << 30) - 1)])
    assert (code, out) == (0, f"x={(1 << 30) - 1} y=0\n1 intersection point(s)\n")
    # 66 * 31 passes for (63,3); 68 * 31 does not for (64,4)
    message = "error: (a+b) * bits(x_max) must be at most 2048, got 68 * 31\n"
    assert run_cli([*pair, "--x-max", str(1 << 30)]) == (1, "", message)
    swapped = ["intersect", "--a1", "64", "--b1", "4", "--a2", "63", "--b2", "3", "--x-max", str(1 << 30)]
    assert run_cli(swapped) == (1, "", message)


CERTIFIED = [(a, d - a) for d in range(2, 9) for a in range(1, d)]
VERDICT_FIELDS = ("degree", "affine_nonsingular", "infinity_nonsingular", "genus", "irreducible", "finiteness")


def test_every_certificate_runs_the_affine_check_once_and_no_exact_eliminant(monkeypatch):
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

    counted(curves_mod, "affine_singular_check")
    for name in ("bipoly_resultant", "_resultant_lists"):
        counted(polynomials_mod, name)
    for a, b in CERTIFIED:
        for fmt in ("text", "json"):
            calls.clear()
            code, _, err = run_cli(["curve", "--a", str(a), "--b", str(b), "--certify", "--format", fmt])
            assert (code, err, calls) == (0, "", ["affine_singular_check"]), (a, b, fmt)


def test_json_certificate_is_the_text_one_with_the_prime_that_proved_it():
    for a, b in CERTIFIED:
        argv = ["curve", "--a", str(a), "--b", str(b), "--certify", "--format"]
        text, payload = run_cli([*argv, "text"])[1], json.loads(run_cli([*argv, "json"])[1])
        lines = [f"F(x,y) = {payload['curve']}"] + [f"{name} = {payload[name]}" for name in VERDICT_FIELDS]
        assert text == "\n".join(lines) + "\n", (a, b)
        assert payload["affine_proof"] == {"eliminant": "Res_y(F,F_y)", "prime": curves_mod._PRIMES[0]}, (a, b)


def test_a_proof_failed_at_both_primes_prints_a_null_affine_proof(monkeypatch):
    # a common factor of R and R' reported at every prime
    monkeypatch.setattr(curves_mod, "_gcd_degree_mod", lambda p, q, m: 1)
    argv = ["curve", "--a", "2", "--b", "3", "--certify", "--format"]
    code, out, err = run_cli([*argv, "json"])
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["affine_proof"] is None and payload["affine_nonsingular"] == "inconclusive"
    assert payload["genus"] is None and payload["irreducible"] is None
    code, out, _ = run_cli([*argv, "text"])
    assert code == 0 and "affine_nonsingular = inconclusive\ninfinity_nonsingular = yes\ngenus = None\n" in out


def test_importing_the_cli_loads_no_process_machinery_and_no_outside_package():
    # the CLI runs in one process on the standard library alone; sympy, mpmath and numpy stay out
    banned = ("multiprocessing", "concurrent", "asyncio", "subprocess", "sympy", "mpmath", "numpy")
    code = f"import sys, pascalrepeats.cli\nprint(sorted({{m.split('.')[0] for m in sys.modules}} & set({banned!r})))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("a,b", [(2, 2), (3, 6)])
def test_certified_curve_forms_no_top_form_and_no_shape_label(a, b, monkeypatch):
    argv = ["curve", "--a", str(a), "--b", str(b), "--certify", "--format"]
    expected = {fmt: run_cli([*argv, fmt]) for fmt in ("text", "json")}
    # certify is replaced by its result, so that any call below is the CLI's own:
    # it prints the certificate's F, and forms no F, no top form and no label
    cert = curves_mod.certify(ShiftPair(a, b))
    monkeypatch.setattr(curves_mod, "certify", lambda shift: cert)
    for name in ("build_curve", "classify_finiteness"):
        monkeypatch.setattr(curves_mod, name, lambda shift, name=name: pytest.fail(f"called {name}"))
    monkeypatch.setattr(BiPoly, "homogeneous_part", lambda f, d: pytest.fail("formed a top form"))
    for fmt in ("text", "json"):
        assert run_cli([*argv, fmt]) == expected[fmt]


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 1)])
@pytest.mark.parametrize("mode", [[], ["--certify"]], ids=["plain", "certify"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_curve_invocation_forms_the_curve_once(a, b, mode, fmt, monkeypatch):
    built = []
    real = curves_mod.build_curve

    def counted(shift):
        built.append(shift)
        return real(shift)

    monkeypatch.setattr(curves_mod, "build_curve", counted)
    code, _, err = run_cli(["curve", "--a", str(a), "--b", str(b), *mode, "--format", fmt])
    assert (code, err) == (0, "")
    assert built == [ShiftPair(a, b)]


def test_census_modes_and_validation():
    code, out, _ = run_cli(["census", "--t", "120"])
    assert code == 0
    assert "t=120 count=6" in out
    code, out, _ = run_cli(["census", "--t-max", "10000", "--m-min", "8", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["t,count", "3003,8"]
    code, _, err = run_cli(["census", "--t", "120", "--t-max", "100", "--m-min", "4"])
    assert code == 1 and "error:" in err
    code, _, err = run_cli(["census"])
    assert code == 1 and "error:" in err


LOW_M_LIMIT = "error: census scan with m_min <= 4 needs t_max <= 2*10^9\n"
HIGH_M_LIMIT = "error: census scan with m_min >= 5 needs t_max <= 10^16\n"


def test_census_scan_refuses_more_values_than_the_bound_before_the_tally():
    # a tally to 10^24 would visit about 10^8 rows, so returning at once shows that none ran
    for t_max, m_min, err in ((2 * 10**9 + 1, 4, LOW_M_LIMIT), (2 * 10**9 + 1, 3, LOW_M_LIMIT),
                              (10**16 + 1, 6, HIGH_M_LIMIT), (10**24, 8, HIGH_M_LIMIT), (10**24, 3, LOW_M_LIMIT)):
        assert run_cli(["census", "--t-max", str(t_max), "--m-min", str(m_min)]) == (1, "", err)


def test_census_help_states_the_scan_limits(capsys):
    with pytest.raises(SystemExit):
        main(["census", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "largest value scanned: at most 10^16, or 2*10^9 when --m-min is 4 or less" in text
    assert "at 4 or less every C(n,2) is a record, hence the lower --t-max bound" in text


class TallyStarted(Exception):
    pass


@pytest.mark.parametrize("m_min", range(3, 9))
def test_census_scan_refuses_past_its_limit_before_the_tally_and_tallies_at_it(monkeypatch, m_min):
    def tally(t_max, first):
        raise TallyStarted(t_max, first)

    monkeypatch.setattr(census_mod, "_held_entries", tally)
    limit, err, first = (2 * 10**9, LOW_M_LIMIT, 3) if m_min <= 4 else (10**16, HIGH_M_LIMIT, 4)
    for t_max in (limit + 1, 10 * limit, 10**4000):
        assert run_cli(["census", "--t-max", str(t_max), "--m-min", str(m_min)]) == (1, "", err)
    with pytest.raises(TallyStarted) as started:
        census_mod.scan_high_multiplicity(limit, m_min)
    assert started.value.args == (limit, first)


@pytest.mark.parametrize(
    "m_min, records, below_former_limit", [(3, 66476, 65469), (4, 66461, 65454)], ids=["3-65469", "4-65454"]
)
def test_census_scan_at_the_low_m_limit_passes_the_bound(m_min, records, below_former_limit):
    # every C(n,2) <= t_max is a record, so the scan at the limit is the largest with m_min <= 4;
    # below_former_limit counts the records up to the former limit of 1,938,714,180
    limit = census_mod._MAX_SCAN_T_LOW_M
    got = census_mod.scan_high_multiplicity(limit, m_min)
    assert (len(got), sum(r.t <= 1_938_714_180 for r in got)) == (records, below_former_limit)
    assert all(a.t < b.t for a, b in zip(got, got[1:])) and got[-1].t <= limit
    assert all(r.count == len(r.occurrences) >= m_min for r in got)
    # each interior position below the limit is in exactly one record, 2 per column holding a
    # value and 1 at a central n = 2k, except that m_min 4 leaves out the centrals found nowhere else
    positions = 0
    k = 2
    while math.comb(2 * k, k) <= limit:
        lo, hi = 2 * k, 4 * k
        while math.comb(hi, k) <= limit:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # the last row of column k with C(n,k) <= limit is in [lo, hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, k) <= limit else (lo, mid)
        positions += 2 * (lo - 2 * k) + 1
        if m_min == 4 and census_mod.multiplicity(math.comb(2 * k, k)).count == 3:
            positions -= 1
        k += 1
    assert sum(r.count - 2 for r in got) == positions
    for r in got[::331]:
        assert all(math.comb(n, k) == r.t for n, k in r.occurrences)


def test_census_t_of_a_thousand_digits_is_refused_before_any_column(monkeypatch):
    monkeypatch.setattr(census_mod, "multiplicity", lambda t: pytest.fail("walked the columns"))
    for t in (10**1000, 10**4200):
        assert run_cli(["census", "--t", str(t)]) == (1, "", "error: census --t must be below 10^1000\n")
    monkeypatch.setattr(census_mod, "multiplicity", lambda t: census_mod.MultiplicityRecord(t, 2, ()))
    code, out, err = run_cli(["census", "--t", str(10**1000 - 1), "--format", "csv"])
    assert (code, out, err) == (0, f"t,count\n{10**1000 - 1},2\n", "")


@pytest.mark.parametrize("t_max", ["-5", "1"])
def test_census_scan_below_two_is_refused_by_the_scan(t_max):
    err = f"error: scan_high_multiplicity needs t_max >= 2, got {t_max}\n"
    assert run_cli(["census", "--t-max", t_max, "--m-min", "4"]) == (1, "", err)


@pytest.mark.parametrize(
    "m_min, t_max",
    [(m, t) for m in (3, 4, 5) for t in (2, 19, 20, 35, 3003, 10**4, 123456)]
    + [(4, census_mod._MAX_SCAN_T_LOW_M), (5, census_mod._MAX_SCAN_T)],
)
def test_census_value_bound_holds_every_value_the_scan_holds(m_min, t_max):
    # every C(n,k) <= t_max with first <= k <= n/2, column by column, is what the scan holds:
    # first = 3 with m_min <= 4, where column 2 is streamed, and 4 otherwise, where column 3 is;
    # the values below a t_max are among those below a larger one, so the counts at the limits
    # bound every scan
    first = 3 if m_min <= 4 else 4
    positions: dict[int, list[tuple[int, int]]] = {}
    k = first
    while math.comb(2 * k, k) <= t_max:
        n = 2 * k
        while (v := math.comb(n, k)) <= t_max:
            positions.setdefault(v, []).append((n, k))
            n += 1
        k += 1
    held = census_mod._held_entries(t_max, first)
    assert {v: sorted(p) for v, p in held.items()} == {v: sorted(p) for v, p in positions.items()}
    assert len(held) <= (3240 if m_min <= 4 else 29685)
    if t_max < 10**6:
        # the records are among the values of columns k >= 2, with their positions
        values = set(positions)
        values.update(n * (n - 1) // 2 for n in range(4, math.isqrt(2 * t_max) + 2) if n * (n - 1) // 2 <= t_max)
        for r in census_mod.scan_high_multiplicity(t_max, m_min):
            assert r.t in values
            assert set(positions.get(r.t, ())) <= set(r.occurrences)


def test_intersect_refuses_an_x_max_of_2_to_the_256_before_any_row(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod.census_mod, "intersect_curves", lambda s1, s2, x_max: pytest.fail("searched"))
    argv = ["intersect", "--a1", "2", "--b1", "3", "--a2", "1", "--b2", "4", "--x-max", str(1 << 256)]
    assert run_cli(argv) == (1, "", "error: intersect --x-max must be below 2^256\n")
    with pytest.raises(SystemExit):
        main(["intersect", "--help"])
    assert "largest x, below 2^256" in capsys.readouterr().out


def test_intersect_json():
    code, out, _ = run_cli(
        ["intersect", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "3", "--x-max", "100", "--format", "json"]
    )
    assert code == 0
    docs = json.loads(out)
    assert {"x": "15", "y": "5"} in docs


def test_plot_csv_exact_rows():
    code, out, _ = run_cli(["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,x"
    assert lines[1] == "0.000000000000,0.000000000000"
    assert lines[2] == "0.000000000000,2.000000000000"
    # y=1 branches are (5 +- sqrt(17))/2
    assert lines[3] == "1.000000000000,0.438447187191"
    assert lines[4] == "1.000000000000,4.561552812809"


def test_plot_fractional_step():
    code, out, _ = run_cli(
        ["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "1", "--y-step", "1/2"]
    )
    assert code == 0
    ys = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert ys == {"0.000000000000", "0.500000000000", "1.000000000000"}


def test_csv_rejected_for_scalar_commands():
    code, _, err = run_cli(["zeta", "--a", "1", "--b", "1", "--format", "csv"])
    assert code == 1
    assert "csv output is not supported" in err


def test_csv_is_refused_before_any_work(monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the format was checked")

    monkeypatch.setattr(cli_mod, "isolate_zeta", no_work)
    monkeypatch.setattr(cli_mod, "read_solutions", no_work)
    monkeypatch.setattr(curves_mod, "build_curve", no_work)
    for argv in (
        ["zeta", "--a", "1", "--b", "1", "--precision", "1e-5000"],
        ["curve", "--a", "2", "--b", "3", "--certify"],
        ["verify", "--cache", str(tmp_path / "cache.jsonl")],
    ):
        code, out, err = run_cli(argv + ["--format", "csv"])
        assert (code, out) == (1, "")
        assert err == f"error: csv output is not supported for {argv[0]!r}\n"


def test_domain_errors_exit_one_with_single_line():
    code, _, err = run_cli(["search", "--a", "0", "--b", "1", "--y-max", "10"])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_byte_identical_determinism_and_worker_independence():
    argv = ["search", "--a", "1", "--b", "1", "--y-max", "300", "--format", "json"]
    outs = set()
    for extra in ([], ["--workers", "2"], ["--workers", "3"]):
        _, out, _ = run_cli(argv + extra)
        outs.add(out)
    assert len(outs) == 1
    _, again, _ = run_cli(argv)
    assert again in outs


def test_main_returns_exit_code():
    assert main(["census", "--t", "6"]) in (0,)
    assert main(["census", "--t", "1"]) == 1


def test_decimal_fixed_rendering():
    assert _decimal_fixed(Fraction(1, 3)) == "0.333333333333"
    assert _decimal_fixed(Fraction(-1, 3)) == "-0.333333333333"
    assert _decimal_fixed(Fraction(2)) == "2.000000000000"
    assert _decimal_fixed(Fraction(1, 8), places=3) == "0.125"


TIE = Fraction(1, 2 * 10**12)  # half a unit in the twelfth place


@pytest.mark.parametrize(
    "q",
    [Fraction(0), TIE, 3 * TIE, 5 * TIE, -TIE, -3 * TIE, -5 * TIE, 2 + 7 * TIE, -2 - 7 * TIE, Fraction(-1, 3),
     Fraction(2, 3), Fraction(-7, 8), Fraction(10**30 + 1, 7), -TIE / 2, TIE / 2, Fraction(-5)],
)
def test_decimal_fixed_rounds_half_to_even_as_round_does(q):
    scaled = round(q * 10**12)
    sign = "-" if scaled < 0 else ""
    assert _decimal_fixed(q) == f"{sign}{abs(scaled) // 10**12}.{abs(scaled) % 10**12:012d}"


@pytest.mark.parametrize("c", [1, 2, 3, 10**12, 7 * 2**90])
@pytest.mark.parametrize(
    "q",
    [Fraction(0), TIE, 3 * TIE, -TIE, -5 * TIE, 2 + 7 * TIE, Fraction(-1, 3), Fraction(-7, 8), -TIE / 2, Fraction(-5)],
)
def test_fixed_point_of_an_unreduced_pair_is_the_decimal_of_its_value(q, c):
    # plot renders each midpoint (lo + hi)/2 from the ends' integers, a pair not in lowest terms
    assert cli_mod._fixed_point(q.numerator * c, q.denominator * c) == _decimal_fixed(q)


# ---------------------------------------------------------------------------
# cache round trips
# ---------------------------------------------------------------------------


def cached(path) -> list:
    """The solutions of a cache file, each checked as read_solutions reaches it."""
    return [s for _, s in read_solutions(str(path))]


def test_cache_roundtrip_reproduces_solutions(tmp_path):
    path = tmp_path / "cache.jsonl"
    sols = search(ShiftPair(1, 1), 50)
    append_solutions(str(path), sols)
    assert cached(path) == sols
    # appending again doubles the records, all still verifiable
    append_solutions(str(path), sols)
    assert cached(path) == sols + sols


def test_cache_append_starts_on_a_fresh_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    sols = search(ShiftPair(1, 1), 20)
    append_solutions(str(path), sols)
    path.write_text(path.read_text().rstrip("\n"))  # a last record without its newline
    append_solutions(str(path), sols)
    assert cached(path) == sols + sols
    # nothing to append leaves the file as it is, final newline or not
    path.write_text(path.read_text().rstrip("\n"))
    before = path.read_bytes()
    append_solutions(str(path), [])
    assert path.read_bytes() == before


def test_cache_empty_file_is_empty_set(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert cached(path) == []


def test_cache_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    sols = search(ShiftPair(1, 1), 20)
    append_solutions(str(path), sols)
    path.write_text(path.read_text() + "\n\n")
    assert cached(path) == sols


def test_cache_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_solutions(str(path), search(ShiftPair(1, 1), 50))
    lines = path.read_text().splitlines()
    lines[1] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError) as exc:
        cached(path)
    assert str(exc.value).startswith("line 2:")
    assert exc.value.line == 2


def test_cache_nonsolution_record_is_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"a": 1, "b": 1, "x": "16", "y": "5", "value": "4368", "trivial": False}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CacheError) as exc:
        cached(path)
    assert exc.value.line == 1
    assert "not a solution" in str(exc.value)


def test_cache_wrong_value_is_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"a": 1, "b": 1, "x": "15", "y": "5", "value": "3004", "trivial": False}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CacheError, match="value"):
        cached(path)


def test_cache_wrong_trivial_flag_is_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"a": 1, "b": 1, "x": "15", "y": "5", "value": "3003", "trivial": True}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CacheError, match="trivial"):
        cached(path)


def test_cache_record_checks_run_in_order(tmp_path):
    # each record also fails a later check: keys, fields, the flag's type, the equation, the value, the flag
    path = tmp_path / "cache.jsonl"
    good = {"a": 1, "b": 1, "x": "15", "y": "5", "value": "3003", "trivial": False}
    cases = [
        ({"a": 1, "b": 1, "x": "15.5", "y": "5", "value": "3003"}, "record keys "),
        ({**good, "x": "15.5", "trivial": "no"}, "malformed record fields"),
        ({**good, "trivial": "no", "value": "1"}, "trivial field must be a boolean"),
        ({**good, "x": "16", "value": "1", "trivial": True}, "C(16,5) != C(15,6): not a solution"),
        ({**good, "value": "1", "trivial": True}, "stored value does not equal C(15,5)"),
        ({**good, "trivial": True}, "trivial flag contradicts the value"),
    ]
    for record, message in cases:
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CacheError) as exc:
            cached(path)
        assert exc.value.line == 1
        assert str(exc.value).startswith(f"line 1: {message}")


def test_cache_unexpected_keys_are_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"a": 1, "b": 1, "x": "15", "y": "5", "value": "3003"}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CacheError, match="keys"):
        cached(path)


def _verify_one_record(tmp_path, record: dict) -> tuple[int, str, str]:
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return run_cli(["verify", "--cache", str(path)])


def test_verify_rejects_fractional_number_fields(tmp_path):
    # int() would truncate these to x=15, y=5, a genuine solution
    record = {"a": 1, "b": 1, "x": 15.9, "y": 5.2, "value": 3003, "trivial": False}
    code, out, err = _verify_one_record(tmp_path, record)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: malformed record fields") and err.count("\n") == 1


def test_verify_rejects_a_float_value_field(tmp_path):
    record = {"a": 1, "b": 1, "x": 15, "y": 5, "value": 3003.0, "trivial": False}
    code, out, err = _verify_one_record(tmp_path, record)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: malformed record fields") and err.count("\n") == 1


def test_verify_rejects_boolean_shift_components(tmp_path):
    # bool is a subclass of int, so ShiftPair alone would read true as 1
    record = {"a": True, "b": True, "x": 15, "y": 5, "value": 3003, "trivial": False}
    code, out, err = _verify_one_record(tmp_path, record)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: malformed record fields") and err.count("\n") == 1


def test_verify_refuses_a_member_seven_record_before_forming_its_value(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "binomial", lambda n, k: pytest.fail("formed a value"))
    record = {"a": 1, "b": 1, "x": "1576239", "y": "602069", "value": "1", "trivial": True}
    code, out, err = _verify_one_record(tmp_path, record)
    assert (code, out) == (1, "")
    assert err == "error: line 1: C(1576239,602069): a solution value over 262144 bits is not formed\n"


def test_search_cache_flag_then_verify_command(tmp_path):
    path = tmp_path / "cache.jsonl"
    code, _, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "60", "--cache", str(path)])
    assert code == 0
    code, out, _ = run_cli(["verify", "--cache", str(path)])
    assert code == 0
    assert out == "ok: 3 record(s) verified\n"
    code, out, _ = run_cli(["verify", "--cache", str(path), "--format", "json"])
    assert json.loads(out) == {"verified": 3}


def test_verify_command_reports_corruption_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    run_cli(["search", "--a", "1", "--b", "1", "--y-max", "60", "--cache", str(path)])
    lines = path.read_text().splitlines()
    bad = json.loads(lines[2])
    bad["value"] = "999"
    lines[2] = json.dumps(bad)
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["verify", "--cache", str(path)])
    assert code == 1
    assert "line 3" in err


def test_verify_missing_file_is_an_error(tmp_path):
    code, _, err = run_cli(["verify", "--cache", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "error:" in err


def test_read_solutions_checks_each_record_before_reading_the_next(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_solutions(str(path), search(ShiftPair(1, 1), 20))
    path.write_text(path.read_text() + "{not json\n")
    records = read_solutions(str(path))
    line, first = next(records)
    assert (line, first.shift, first.x, first.y) == (1, ShiftPair(1, 1), 2, 0)
    with pytest.raises(CacheError) as exc:
        list(records)
    assert exc.value.line == len(path.read_text().splitlines())


def test_verify_reports_each_duplicate_record_on_stderr(tmp_path):
    path = tmp_path / "cache.jsonl"
    sols = search(ShiftPair(1, 1), 60)
    append_solutions(str(path), sols + sols[:1])
    append_solutions(str(path), sols)
    code, out, err = run_cli(["verify", "--cache", str(path)])
    assert (code, out) == (0, "ok: 7 record(s) verified\n")
    assert err == (
        "duplicate: line 4 repeats the record of line 1\n"
        "duplicate: line 5 repeats the record of line 1\n"
        "duplicate: line 6 repeats the record of line 2\n"
        "duplicate: line 7 repeats the record of line 3\n"
    )
    code, out, _ = run_cli(["verify", "--cache", str(path), "--format", "json"])
    assert (code, json.loads(out)) == (0, {"verified": 7})
    # a record that fails its checks still ends the command with exit 1, after the duplicates before it
    path.write_text(path.read_text() + "{not json\n")
    code, out, err = run_cli(["verify", "--cache", str(path)])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: line 8: invalid JSON")
    assert err.count("duplicate:") == 4


# ---------------------------------------------------------------------------
# integers beyond Python's int-to-string digit limit
# ---------------------------------------------------------------------------

# family member i=5: C(33552,12815) = C(33551,12816), 9,688 digits
FAMILY_5 = (33552, 12815)
DEFAULT_DIGIT_LIMIT = 4300


@pytest.fixture
def digit_limit():
    """Run the test under the interpreter's default int-to-string limit."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(before)


def decimal_digits(n: int) -> str:
    """Oracle: digits of n >= 0 from base-10^9 limbs, never calling str on n itself."""
    limbs = []
    while True:
        n, r = divmod(n, 10**9)
        limbs.append(r)
        if n == 0:
            break
    return str(limbs[-1]) + "".join(f"{r:09d}" for r in reversed(limbs[:-1]))


def test_search_prints_values_past_the_digit_limit(digit_limit):
    x, y = FAMILY_5
    digits = decimal_digits(math.comb(x, y))
    assert len(digits) > DEFAULT_DIGIT_LIMIT
    code, out, err = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "13000"])
    assert (code, err) == (0, "")
    assert f"x={x} y={y} value={digits}\n" in out
    code, out, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "13000", "--format", "csv"])
    assert code == 0 and f"1,1,{x},{y},{digits},false\n" in out


def test_family_prints_values_past_the_digit_limit(digit_limit):
    x, y = FAMILY_5
    digits = decimal_digits(math.comb(x, y))
    code, out, err = run_cli(["family", "--i-max", "5"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"i=5 n={x - 1} k={y - 1} value={digits}"
    code, out, _ = run_cli(["family", "--i-max", "5", "--format", "json"])
    assert code == 0 and json.loads(out)[-1]["value"] == digits
    code, out, _ = run_cli(["family", "--i-max", "5", "--format", "csv"])
    assert code == 0 and out.splitlines()[-1] == f"5,{x - 1},{y - 1},{digits}"


def test_rational_rendering_past_the_digit_limit(digit_limit):
    p, q = 3**10000, 2**15000  # 4,772 and 4,516 digits
    assert _rational(Fraction(p, q)) == f"{decimal_digits(p)}/{decimal_digits(q)}"
    assert _rational(Fraction(-p)) == "-" + decimal_digits(p)


def test_cache_keeps_and_verifies_records_past_the_digit_limit(digit_limit, tmp_path):
    path = tmp_path / "cache.jsonl"
    code, out, _ = run_cli(["search", "--a", "1", "--b", "1", "--y-max", "13000", "--cache", str(path)])
    assert code == 0
    count = int(out.splitlines()[-1].split()[0])
    lines = path.read_text().splitlines()
    assert len(lines) == count
    x, y = FAMILY_5
    assert json.loads(lines[-1]) == {
        "a": 1, "b": 1, "x": str(x), "y": str(y), "value": decimal_digits(math.comb(x, y)), "trivial": False,
    }
    code, out, _ = run_cli(["verify", "--cache", str(path)])
    assert (code, out) == (0, f"ok: {count} record(s) verified\n")


def test_verify_rejects_an_over_limit_bare_integer_line(digit_limit, tmp_path):
    path = tmp_path / "cache.jsonl"
    append_solutions(str(path), search(ShiftPair(1, 1), 20))
    path.write_text(path.read_text() + "1" * 5000 + "\n")
    bad_line = len(path.read_text().splitlines())
    code, out, err = run_cli(["verify", "--cache", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {bad_line}:") and err.count("\n") == 1


def test_verify_integer_fields_stay_exact(digit_limit, tmp_path):
    path = tmp_path / "cache.jsonl"
    good = {"a": 1, "b": 1, "x": "15", "y": "5", "value": "3003", "trivial": False}
    over_limit = "1" * 5000
    for field, text in [("value", "3003.0"), ("x", "1.5e1"), ("x", "15.5"), ("x", "1e3"), ("x", over_limit + ".5")]:
        path.write_text(json.dumps({**good, field: text}) + "\n")
        with pytest.raises(CacheError, match="malformed") as exc:
            cached(path)
        assert exc.value.line == 1
    # an over-limit integer string parses exactly and then fails the equation
    path.write_text(json.dumps({**good, "x": over_limit, "y": "0", "value": "1"}) + "\n")
    code, _, err = run_cli(["verify", "--cache", str(path)])
    assert code == 1 and err.startswith("error: line 1:") and "not a solution" in err


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_plot_writes_each_section_before_isolating_the_next(fmt, monkeypatch):
    out = io.StringIO()
    written = []  # the output at each section's isolation
    isolate = curves_mod.isolate_real_roots

    def recording_isolate(section, width, hints):
        written.append(out.getvalue())
        return isolate(section, width, hints)

    def rows(text):
        return text.count('"y": ') if fmt == "json" else max(text.count("\n") - 1, 0)

    monkeypatch.setattr(curves_mod, "isolate_real_roots", recording_isolate)
    args = build_parser().parse_args(["plot", "--a", "1", "--b", "1", "--y-min", "0", "--y-max", "3", "--format", fmt])
    assert dispatch(args, out) == 0
    # two branches above each of y = 0..3; nothing is written before the first section
    assert written[0] == ""
    assert [rows(text) for text in written] == [0, 2, 4, 6]
    assert rows(out.getvalue()) == 8


def test_plot_json_streams_what_json_dumps_writes():
    for argv in (["--y-min", "0", "--y-max", "3"], ["--y-min", "2", "--y-max", "2"], ["--y-min", "3", "--y-max", "1"]):
        code, out, _ = run_cli(["plot", "--a", "1", "--b", "1", *argv, "--format", "json"])
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    assert run_cli(["plot", "--a", "1", "--b", "1", "--y-min", "3", "--y-max", "1", "--format", "json"])[1] == "[]\n"


def test_verify_reports_a_record_outside_the_domain_past_the_digit_limit(digit_limit, tmp_path):
    x = "1" + "0" * 5000
    record = {"a": 1, "b": 1, "x": x, "y": "-1", "value": "1", "trivial": True}
    code, out, err = _verify_one_record(tmp_path, record)
    assert (code, out) == (1, "")
    assert err == (
        f"error: line 1: record outside the solution domain: equality_check needs x >= y >= 0, got x={x}, y=-1\n"
    )
