"""Command-line surface: the only module with side effects.

Subcommands: zeta, search, family, curve, census, intersect, verify,
plot. Each subparser binds its own handler with set_defaults(run=...),
and the handler reads the parsed argparse namespace directly. Output
goes to standard output in json, csv, or text form; diagnostics go to
standard error. A handler builds its output once, as the JSON objects it
prints, and every list of them leaves through one writer, _emit_records:
json as a streamed array, csv by named columns, text one line per
record; plot's text is its csv. Exit status is 0 on success; 1 on a
domain or cache error, with one "error:" line; 2 on a usage error, which
argparse reports, an unparseable integer or rational included, and a
decimal exponent beyond +-100000. Identical invocations produce
byte-identical output; every search runs in one process, and its
--workers value is checked but selects nothing. Any number that may
exceed 64 bits is serialized as a decimal string, rendered and parsed
through Decimal so that Python's int-to-string digit limit never
applies.

build_parser is cached: the parser, with its eight subparsers, is built
once per process and reused by every main call. A one-shot process,
such as the console script, gains nothing from this; in-process callers
that call main many times (tests, demos, a benchmark worker) skip about
1.5 ms of construction per call. parse_args keeps no state between
calls, so a reused parser prints and returns what a fresh one would.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, TextIO

from . import census as census_mod
from . import curves as curves_mod
from .combinatorics import binomial
from .errors import CacheError, PreconditionError, ZeroPolynomialError
from .polynomials import format_bipoly
from .ratios import ShiftPair, isolate_zeta
from .search import Solution, _check_value_bits, equality_check, family_member, search

FORMATS = ("json", "csv", "text")
_MAX_DECIMAL_EXPONENT = 100_000  # 1e-100000 is a 332,000-bit denominator
_MAX_PLOT_SECTIONS = 1_000_000
# the exact eliminants of curve --certify --format json cost about 1.6 times more per degree:
# degree 15 took 2.6-2.9 s on 2 CPUs, degree 16 4.2 s
_MAX_CERTIFY_DEGREE = 15
# plain curve forms F once and prints it and its top form, F's degree-(a+b) part; forming F is
# nearly all of the cost, about 8 times more per doubling of a+b: on 2 CPUs degree 160 took
# 1.0-1.9 s and printed 2.2 MB, degree 80 0.15-0.2 s
_MAX_CURVE_DEGREE = 160
# the cost of search's proved blocks grows with y_max's bit length: to y_max = 2^256 - 1
# every shift with a+b <= 8 other than (1,1) took at most 0.8 s on 2 CPUs, to 2^384 2.4 s;
# intersect runs the same blocks on rows below x_max/2
_MAX_SEARCH_Y_BITS = 256
# member 6 has 220,628 bits, formed in about 20 ms and printed by _digits in 0.08 s on 2 CPUs;
# member 7 has 1,512,263 bits, formed in 0.4 s but printed in about 3.8 s, and str(Decimal(v))
# grows about quadratically, so each further member costs seconds more to print
_MAX_FAMILY_INDEX = 6


def _parse_fraction(text: str) -> Fraction:
    """argparse type of a rational flag: "1e-12", "0.25" or "1/128".

    A decimal's exponent is checked before the Fraction is built: its
    10^|exponent| takes 3.3 bits per unit, and building "1e-10000000"
    alone takes seconds. The parts of "p/q" are bounded by the
    int-to-string digit limit.
    """
    try:
        if "/" in text:
            return Fraction(text)
        d = Decimal(text)
        if d.is_finite() and abs(d.adjusted()) > _MAX_DECIMAL_EXPONENT:
            raise argparse.ArgumentTypeError(f"{text!r} has a decimal exponent beyond +-{_MAX_DECIMAL_EXPONENT}")
        return Fraction(d)
    except (ValueError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a rational") from exc


def _digits(n: int) -> str:
    """Decimal digits of n; unlike str(n), not subject to the int-to-string limit."""
    return str(Decimal(n))


def _rational(q: Fraction) -> str:
    """str(q) with each part rendered by _digits."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_int(value: object) -> int:
    """int(value), extended to integer strings beyond the int-to-string limit.

    Only a plain optionally signed run of ASCII digits takes the Decimal
    route, so "1.5" and "1e3" are still rejected rather than truncated.
    A float or a bool is refused: int() would truncate 15.9 to 15 and read
    true as 1.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        if isinstance(value, str) and _INTEGER.fullmatch(value):
            return int(Decimal(value))
        raise


def _decimal_sig(q: Fraction, digits: int = 15) -> str:
    """Decimal rendering with the given significant digits (display only)."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def _decimal_fixed(q: Fraction, places: int = 12) -> str:
    """Fixed-point decimal rendering, exact rational rounding to even."""
    scale = 10**places
    scaled = round(q * scale)
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    return f"{sign}{mag // scale}.{mag % scale:0{places}d}"


# ---------------------------------------------------------------------------
# Solution serialization and the JSON-lines cache.
# ---------------------------------------------------------------------------


_SOLUTION_KEYS = ("a", "b", "x", "y", "value", "trivial")


def solution_to_dict(s: Solution) -> dict:
    return {
        "a": s.shift.a,
        "b": s.shift.b,
        "x": _digits(s.x),
        "y": _digits(s.y),
        "value": _digits(s.value),
        "trivial": s.trivial,
    }


def _solution_from_dict(record: object, line: int) -> Solution:
    if not isinstance(record, dict):
        raise CacheError("record is not a JSON object", line)
    expected = set(_SOLUTION_KEYS)
    if set(record) != expected:
        raise CacheError(f"record keys {sorted(record)} != {sorted(expected)}", line)
    try:
        shift = ShiftPair(record["a"], record["b"])
        x, y, value = (_parse_int(record[k]) for k in ("x", "y", "value"))
        trivial = record["trivial"]
    except (PreconditionError, ValueError, TypeError) as exc:
        raise CacheError(f"malformed record fields: {exc}", line) from exc
    if not isinstance(trivial, bool):
        raise CacheError("trivial field must be a boolean", line)
    try:
        ok = equality_check(x, y, shift)
    except PreconditionError as exc:
        raise CacheError(f"record outside the solution domain: {exc}", line) from exc
    if not ok:
        other = f"C({_digits(x - shift.a)},{_digits(y + shift.b)})"
        raise CacheError(f"C({_digits(x)},{_digits(y)}) != {other}: not a solution", line)
    try:
        _check_value_bits(x, y)
    except PreconditionError as exc:
        raise CacheError(f"C({_digits(x)},{_digits(y)}): {exc}", line) from exc
    if binomial(x, y) != value:
        raise CacheError(f"stored value does not equal C({_digits(x)},{_digits(y)})", line)
    if trivial != (value <= 1):
        raise CacheError("trivial flag contradicts the value", line)
    return Solution(shift, x, y, value, trivial)


def append_solutions(path: str, solutions: list[Solution]) -> None:
    """Append one JSON line per solution, on a fresh line if the file lacks a final newline."""
    text = "".join(json.dumps(solution_to_dict(s)) + "\n" for s in solutions)
    with open(path, "ab+") as fh:
        if text and fh.tell():  # append mode opens at the end
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                text = "\n" + text
        fh.write(text.encode("utf-8"))


def read_solutions(path: str) -> list[Solution]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CacheError(f"invalid JSON: {exc.msg}", line_no) from exc
            except ValueError as exc:
                # e.g. a bare JSON integer beyond the int-to-string limit
                raise CacheError(f"invalid JSON: {exc}", line_no) from exc
            out.append(_solution_from_dict(record, line_no))
    return out


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _emit_json(obj, out: TextIO) -> None:
    out.write(json.dumps(obj, indent=2) + "\n")


def _emit_json_array(items: Iterable, out: TextIO) -> None:
    """Write what _emit_json writes for list(items), each item as it comes."""
    opening = "[\n"
    for item in items:
        out.write(opening + "  " + json.dumps(item, indent=2).replace("\n", "\n  "))
        opening = ",\n"
    out.write("[]\n" if opening == "[\n" else "\n]\n")


def _emit_records(
    records: Iterable[dict],
    fmt: str,
    out: TextIO,
    columns: tuple[str, ...],
    line: Callable[[dict], str] | None = None,
    counted: str | None = None,
) -> None:
    """The one writer of a command's list of records, each written as it comes.

    json is the array of the records, byte for byte what _emit_json
    writes for the list; csv is a header of the named columns and a row
    per record, each value as str() with booleans in lower case; text is
    line(record) per record, then "N <counted>" when counted is given.
    """
    if fmt == "json":
        _emit_json_array(records, out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        cells = ([r[c] for c in columns] for r in records)
        writer.writerows([str(v).lower() if isinstance(v, bool) else str(v) for v in row] for row in cells)
    else:
        n = 0
        for n, record in enumerate(records, start=1):
            out.write(line(record) + "\n")
        if counted is not None:
            out.write(f"{n} {counted}\n")


def _no_csv(fmt: str, command: str) -> None:
    """Refuse csv before any work is done."""
    if fmt == "csv":
        raise PreconditionError(f"csv output is not supported for {command!r}")


# ---------------------------------------------------------------------------
# Per-command execution.
# ---------------------------------------------------------------------------


def _run_zeta(args: argparse.Namespace, out: TextIO) -> None:
    _no_csv(args.format, "zeta")
    shift = ShiftPair(args.a, args.b)
    interval = isolate_zeta(shift, args.precision)
    decimal = _decimal_sig(interval.midpoint)
    if args.format == "json":
        _emit_json(
            {
                "a": shift.a,
                "b": shift.b,
                "lo": f"{_digits(interval.lo.numerator)}/{_digits(interval.lo.denominator)}",
                "hi": f"{_digits(interval.hi.numerator)}/{_digits(interval.hi.denominator)}",
                "decimal": decimal,
            },
            out,
        )
    else:
        out.write(f"lo = {_rational(interval.lo)}\n")
        out.write(f"hi = {_rational(interval.hi)}\n")
        out.write(f"decimal = {decimal}\n")


def _solution_line(s: dict) -> str:
    return "x={x} y={y} value={value}".format_map(s) + (" (trivial)" if s["trivial"] else "")


def _run_search(args: argparse.Namespace, out: TextIO) -> None:
    shift = ShiftPair(args.a, args.b)
    if args.workers < 1:
        raise PreconditionError(f"search needs workers >= 1, got {args.workers}")
    if args.y_max >= 1 << _MAX_SEARCH_Y_BITS:
        raise PreconditionError(f"search --y-max must be below 2^{_MAX_SEARCH_Y_BITS}")
    solutions = search(shift, args.y_max)
    if args.cache is not None:
        append_solutions(args.cache, solutions)
    records = [solution_to_dict(s) for s in solutions]
    _emit_records(records, args.format, out, _SOLUTION_KEYS, _solution_line, "solution(s)")


def _run_family(args: argparse.Namespace, out: TextIO) -> None:
    if args.i_max < 1:
        raise PreconditionError("family needs --i-max >= 1")
    if args.i_max > _MAX_FAMILY_INDEX:
        raise PreconditionError(f"family --i-max is at most {_MAX_FAMILY_INDEX}, got {args.i_max}")
    members = [family_member(i) for i in range(1, args.i_max + 1)]
    records = [{"i": m.i, "n": _digits(m.n), "k": _digits(m.k), "value": _digits(m.value)} for m in members]
    _emit_records(records, args.format, out, ("i", "n", "k", "value"), "i={i} n={n} k={k} value={value}".format_map)


def _run_curve(args: argparse.Namespace, out: TextIO) -> None:
    _no_csv(args.format, "curve")
    shift = ShiftPair(args.a, args.b)
    if args.certify and shift.degree > _MAX_CERTIFY_DEGREE:
        raise PreconditionError(f"curve --certify needs a+b <= {_MAX_CERTIFY_DEGREE}, got {shift.degree}")
    if shift.degree > _MAX_CURVE_DEGREE:
        raise PreconditionError(f"curve needs a+b <= {_MAX_CURVE_DEGREE}, got {shift.degree}")
    if args.certify:
        cert = curves_mod.certify(shift)
        curve = format_bipoly(cert.curve)
        if args.format == "json":
            _emit_json({"curve": curve, **cert.to_json_dict()}, out)
            return
        fields = {
            "degree": cert.degree,
            "affine_nonsingular": cert.affine_nonsingular.value,
            "infinity_nonsingular": cert.infinity_nonsingular.value,
            "genus": cert.genus,
            "irreducible": cert.irreducible,
            "finiteness": cert.finiteness.value,
        }
    else:
        f = curves_mod.build_curve(shift)
        curve = format_bipoly(f)
        top = format_bipoly(f.homogeneous_part(shift.degree))
        finiteness = curves_mod.classify_finiteness(shift).value
        if args.format == "json":
            head = {"a": shift.a, "b": shift.b, "degree": shift.degree}
            _emit_json({**head, "curve": curve, "top_form": top, "finiteness": finiteness}, out)
            return
        fields = {"top form": top, "degree": shift.degree, "finiteness": finiteness}
    out.write(f"F(x,y) = {curve}\n")
    out.writelines(f"{name} = {value}\n" for name, value in fields.items())


def _census_line(r: dict) -> str:
    occurrences = " ".join(f"({n},{k})" for n, k in r["occurrences"])
    return f"t={r['t']} count={r['count']} occurrences: {occurrences}"


def _run_census(args: argparse.Namespace, out: TextIO) -> None:
    single = args.t is not None
    ranged = args.t_max is not None or args.m_min is not None
    if single == ranged:
        raise PreconditionError("census needs either --t, or both --t-max and --m-min")
    if single:
        records = [census_mod.multiplicity(args.t).to_json_dict()]
        if args.format == "json":
            _emit_json(records[0], out)
            return
    else:
        if args.t_max is None or args.m_min is None:
            raise PreconditionError("census scan needs both --t-max and --m-min")
        records = [r.to_json_dict() for r in census_mod.scan_high_multiplicity(args.t_max, args.m_min)]
    _emit_records(records, args.format, out, ("t", "count"), _census_line)


def _run_intersect(args: argparse.Namespace, out: TextIO) -> None:
    s1 = ShiftPair(args.a1, args.b1)
    s2 = ShiftPair(args.a2, args.b2)
    if args.x_max >= 1 << _MAX_SEARCH_Y_BITS:
        raise PreconditionError(f"intersect --x-max must be below 2^{_MAX_SEARCH_Y_BITS}")
    records = [{"x": str(x), "y": str(y)} for x, y in census_mod.intersect_curves(s1, s2, args.x_max)]
    _emit_records(records, args.format, out, ("x", "y"), "x={x} y={y}".format_map, "intersection point(s)")


def _run_verify(args: argparse.Namespace, out: TextIO) -> None:
    _no_csv(args.format, "verify")
    solutions = read_solutions(args.cache)
    if args.format == "json":
        _emit_json({"verified": len(solutions)}, out)
    else:
        out.write(f"ok: {len(solutions)} record(s) verified\n")


def _run_plot(args: argparse.Namespace, out: TextIO) -> None:
    shift = ShiftPair(args.a, args.b)
    if args.y_step <= 0:
        raise PreconditionError("plot needs a positive --y-step")
    sections = (args.y_max - args.y_min) // args.y_step + 1
    if sections > _MAX_PLOT_SECTIONS:
        raise PreconditionError(f"plot would isolate {sections} sections, more than {_MAX_PLOT_SECTIONS}")
    ys = (args.y_min + i * args.y_step for i in range(sections))
    branches = curves_mod.real_branches(shift, ys, width=args.precision)
    # Rows are written as their section is isolated. The first section is
    # isolated before anything is written, so that a nonpositive width
    # leaves the output empty; every section is monic in x, so no later
    # one can fail.
    first = next(branches, None)
    sections = branches if first is None else itertools.chain([first], branches)
    records = ({"y": _decimal_fixed(y0), "x": _decimal_fixed(e.midpoint)} for y0, encs in sections for e in encs)
    # text and csv coincide: plot data is CSV by nature
    _emit_records(records, "csv" if args.format == "text" else args.format, out, ("y", "x"))


def dispatch(args: argparse.Namespace, out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Run the handler that the parsed invocation's subparser bound.

    Returns the process exit status; domain and cache failures print a
    one-line diagnostic to the error stream and return 1.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args.run(args, out)
    except (PreconditionError, ZeroPolynomialError, CacheError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="pascalrepeats",
        description="Exact search and certification for repeated binomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, default: str = "text") -> None:
        p.add_argument("--format", choices=FORMATS, default=default)

    p = sub.add_parser("zeta", help="isolate the limiting ratio for a shift")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--precision", type=_parse_fraction, default=Fraction(1, 10**12), help="enclosure width, e.g. 1e-12"
    )
    add_format(p)
    p.set_defaults(run=_run_zeta)

    p = sub.add_parser("search", help="all solutions with y up to a bound")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--y-max", type=int, required=True, help=f"largest y, below 2^{_MAX_SEARCH_Y_BITS}")
    p.add_argument(
        "--workers", type=int, default=1, help="accepted and checked (>= 1) but unused: every search runs in one process"
    )
    p.add_argument("--cache", type=str, default=None, help="append solutions to this JSON-lines file")
    add_format(p)
    p.set_defaults(run=_run_search)

    p = sub.add_parser("family", help="the Fibonacci family members")
    p.add_argument("--i-max", type=int, required=True, help=f"last member, at most {_MAX_FAMILY_INDEX}")
    add_format(p)
    p.set_defaults(run=_run_family)

    p = sub.add_parser("curve", help=f"the shift's plane curve for a+b <= {_MAX_CURVE_DEGREE}, optionally certified")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--certify", action="store_true", help=f"prove smoothness and the genus; needs a+b <= {_MAX_CERTIFY_DEGREE}"
    )
    add_format(p)
    p.set_defaults(run=_run_curve)

    p = sub.add_parser("census", help="multiplicity of one value or a high-multiplicity scan")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--m-min", type=int, default=None)
    add_format(p)
    p.set_defaults(run=_run_census)

    p = sub.add_parser("intersect", help="common solutions of two shift equations")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True, help=f"largest x, below 2^{_MAX_SEARCH_Y_BITS}")
    add_format(p)
    p.set_defaults(run=_run_intersect)

    p = sub.add_parser("verify", help="re-verify a solution cache")
    p.add_argument("--cache", type=str, required=True)
    add_format(p)
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("plot", help="branch data of the curve as y,x rows")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--y-min", type=int, required=True)
    p.add_argument("--y-max", type=int, required=True)
    p.add_argument("--y-step", type=_parse_fraction, default=Fraction(1))
    p.add_argument(
        "--precision", type=_parse_fraction, default=Fraction(1, 10**13), help="enclosure width, e.g. 1e-13"
    )
    add_format(p, default="csv")
    p.set_defaults(run=_run_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
