"""Command-line surface: the only module with side effects.

Subcommands: zeta, search, family, curve, census, intersect, verify,
plot. Each subparser binds its own handler with set_defaults(run=...),
and the handler reads the parsed argparse namespace directly and is
given both streams. Output goes to standard output in json, csv, or
text form; diagnostics go to standard error, among them a line for each
record of a verified cache that repeats an earlier one. A handler
builds its output once, as the JSON objects it prints, and every list
of them leaves through one writer, _emit_records: json as a streamed
array, csv by named columns, text one line per record; plot's text is
its csv. Exit status is 0 on success; 1 on a domain or cache error,
with one "error:" line; 2 on a usage error, which argparse reports, an
unparseable integer or rational included, and a decimal exponent beyond
+-100000. Identical invocations produce
byte-identical output; every search runs in one process, and its
--workers value is checked but selects nothing. Any number that may
exceed 64 bits is serialized as a decimal string. Solutions, family
members and zeta endpoints are rendered and parsed through Decimal so
that Python's int-to-string limit of 4,300 digits never applies.
Intersection points and census values are rendered by str(), which is
safe only because their bounds keep them far below that limit: an
intersection's x and y stay below 2^256 (78 digits), and a census value
below 10^1000.

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
import math
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO

from . import census as census_mod
from . import curves as curves_mod
from .errors import CacheError, PreconditionError, ZeroPolynomialError
from .polynomials import format_bipoly
from .ratios import Interval, ShiftPair, isolate_zeta
from .search import Solution, _make_solution, equality_check, family_member, search

FORMATS = ("json", "csv", "text")
_MAX_DECIMAL_EXPONENT = 100_000  # 1e-100000 is a 332,000-bit denominator
# zeta starts from the bracket [1, 2^(a+b)]: at (100,100) all three Newton tries, after 64, 128
# and 192 halvings, fail, and each costs an O(d^2) Taylor shift (_shifted: 0.70 of 1.32 s). On
# 2 CPUs at the default precision every a+b = 160 tried took 0.43-0.73 s, (80,80) the most; 200
# took 1.8 s and 300 over 10 s. The time also grows with the precision's bits: (80,80) at 1e-1000
# took 1.4 s, (20,20) at 1e-100000 45 s
_MAX_ZETA_DEGREE = 160
# past the degree, zeta's time grows with a+b times the bits of 1/precision, the level of its
# Newton cell. On 2 CPUs isolate_zeta took 0.59 s for (1,1) at 1e-100000 (2 * 332,193; the CLI
# 1.6 s with the 100,000-digit output), and at (a+b) * bits = 1,000,000 0.38-0.76 s for (2,2),
# (3,3), (20,20) and (50,50), 1.5 s for (160,1) and 1.9 s for (80,80); (20,20) at 1e-20000
# (2.7 million) took 2.7 s, (40,40) there 13 s and (80,80) at 2^-33220 16 s
_MAX_ZETA_WORK = 1_000_000
# a plot section isolates the real roots of a degree-(a+b) polynomial in x: on 2 CPUs one section
# at y = 0 took 0.42-0.76 s at a+b = 40, 3.2 s at 50 and 47 s at 80
_MAX_PLOT_DEGREE = 40
# a section's cost also grows with its y = u/w, about as ((a+b)^2 * bits(max(|u|, w)))^2.5: on 2 CPUs
# one section at (a+b)^2 * bits = 10,000 took 0.84-1.14 s, from (5,5) at 100 bits to (20,20) at 6;
# (20,20) took 4.7 s at 10 bits and 22 s at 21 bits. Every section's |u| and w are at most
# max(|y_min|, |y_max|, 1) times the denominator of --y-step
_MAX_PLOT_WORK = 10_000
# a whole plot is bounded by its estimated time, the section count times a section's estimate in
# microseconds, 200 + d^4/8 + (W/40)^2.5 + (d*p/256)^2 with d = a+b, W the work above and p the
# bits of 1/precision. Each term is fitted from above to times measured on 2 CPUs: 200 us is a
# section of (1,1) or (3,2) at the default precision, rows written (77-175 us); d^4/8 the sections
# at small |y|, which have the most roots ((6,6) 1.6 ms, (10,10) 9 ms, (20,20) 0.4-0.7 s); W the
# height, as above; p the Newton cells, per continued section of (1,1) 57 ms at 2^-33220, (6,6)
# 0.2 s, and a section of (20,20) 2.2 s at 2^-10000. At 2 s the estimate admits the benchmark's
# (3,2) on 0..300 (0.11 s estimated, 0.017 s taken) and at most about 9,900 sections of any
# plot, where 100,000 of (1,1) took 17 s before sections were continued in integers. The terms
# were fitted before the Sturm chains were formed in blocks of sections, which made sections
# cheaper, so the estimate is now an upper bound; it is not re-fitted
_MAX_PLOT_MICROSECONDS = 2_000_000
# text and JSON run the same proof, Res_y(F,F_y) mod p, and form no exact eliminant: certify and
# the rendered curve took 0.021-0.026 s at (8,7) and (1,14), 0.07 s at (10,10) and 1.07-1.11 s
# at (20,20) in one process on 2 CPUs, and curve --a 8 --b 7 --certify 0.10 s as a command in
# either format. The bound is kept where the exact JSON eliminants once set it; raising it is
# a measurement of these times
_MAX_CERTIFY_DEGREE = 15
# plain curve forms F once and prints it and its top form, F's degree-(a+b) part; the output
# grows about 8 times per doubling of a+b: on 2 CPUs degree 160 printed 2.2 MB in 0.12-0.18 s
# (0.02 s forming F, 0.03 s rendering it, the rest starting Python), degree 80 0.27 MB in 0.09 s
_MAX_CURVE_DEGREE = 160
# the cost of search's proved blocks grows with y_max's bit length: to y_max = 2^256 - 1
# every shift with a+b <= 8 other than (1,1) took at most 0.8 s on 2 CPUs, to 2^384 2.4 s;
# intersect runs the same blocks on rows below x_max/2
_MAX_SEARCH_Y_BITS = 256
# search's cost grows with a+b too, which sets the rows walked before the blocks (32 per unit of
# a+b) and the size of each row's products: on 2 CPUs, with (a+b) * bits(y_max) = 2048, every
# shift tried from (7,1) at 256 bits to (1,2047) at 1 took at most 0.8 s, (127,1) at 16 bits the
# most; (67,1) took 3.6 s at 65 bits, (399,1) 28 s at 20, and (200000,1) 34.6 s at y_max = 1
_MAX_SEARCH_WORK = 2048
# member 6 has 220,628 bits, formed in about 20 ms and printed by _digits in 0.08 s on 2 CPUs;
# member 7 has 1,512,263 bits, formed in 0.4 s but printed in about 3.8 s, and str(Decimal(v))
# grows about quadratically, so each further member costs seconds more to print
_MAX_FAMILY_INDEX = 6
# census --t walks every column k with C(2k,k) <= t, each from a t-sized math.comb: on 2 CPUs
# a t of 1,000 digits took 0.29 s, 2,000 digits 2.05 s, 3,000 digits 5.9 s and 4,299 digits
# (the most argparse's int reads) 15.7 s
_MAX_CENSUS_T = 10**1000


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
    return _fixed_point(q.numerator, q.denominator, places)


def _fixed_point(n: int, d: int, places: int = 12) -> str:
    """_decimal_fixed of n/d for d > 0, in integers; the rounding reads the value alone, so n/d need not be reduced."""
    scale = 10**places
    scaled, rem = divmod(n * scale, d)  # n/d * scale = scaled + rem/d
    if 2 * rem > d or (2 * rem == d and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    return f"{sign}{mag // scale}.{mag % scale:0{places}d}"


# ---------------------------------------------------------------------------
# Solution serialization and the JSON-lines cache.
# ---------------------------------------------------------------------------


_SOLUTION_KEYS = ("a", "b", "x", "y", "value", "trivial")
_SOLUTION_KEY_SET = frozenset(_SOLUTION_KEYS)


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
    if record.keys() != _SOLUTION_KEY_SET:
        raise CacheError(f"record keys {sorted(record)} != {sorted(_SOLUTION_KEY_SET)}", line)
    try:
        shift = ShiftPair(record["a"], record["b"])
        x, y, value = _parse_int(record["x"]), _parse_int(record["y"]), _parse_int(record["value"])
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
        solution = _make_solution(x, y, shift)
    except PreconditionError as exc:
        raise CacheError(f"C({_digits(x)},{_digits(y)}): {exc}", line) from exc
    if solution.value != value:
        raise CacheError(f"stored value does not equal C({_digits(x)},{_digits(y)})", line)
    if solution.trivial != trivial:
        raise CacheError("trivial flag contradicts the value", line)
    return solution


def append_solutions(path: str, solutions: list[Solution]) -> None:
    """Append one JSON line per solution, on a fresh line if the file lacks a final newline."""
    text = "".join(json.dumps(solution_to_dict(s)) + "\n" for s in solutions)
    with open(path, "ab+") as fh:
        if text and fh.tell():  # append mode opens at the end
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                text = "\n" + text
        fh.write(text.encode("utf-8"))


def read_solutions(path: str) -> Iterator[tuple[int, Solution]]:
    """Each record of a solution cache with its line number, checked as it is read.

    A record that fails a check raises CacheError with its line number
    when it is reached; the records before it have been yielded.
    """
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
            yield line_no, _solution_from_dict(record, line_no)


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


def _inverse_bits(q: Fraction) -> int:
    """bits(1/q), the bit length of ceil(1/q), for q > 0; 0 otherwise, left for the command to refuse."""
    return (-(-q.denominator // q.numerator)).bit_length() if q > 0 else 0


def _run_zeta(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    _no_csv(args.format, "zeta")
    shift = ShiftPair(args.a, args.b)
    if shift.degree > _MAX_ZETA_DEGREE:
        raise PreconditionError(f"zeta needs a+b <= {_MAX_ZETA_DEGREE}, got {shift.degree}")
    bits = _inverse_bits(args.precision)
    if shift.degree * bits > _MAX_ZETA_WORK:
        raise PreconditionError(
            f"zeta needs (a+b) * bits(1/precision) <= {_MAX_ZETA_WORK}, got {shift.degree} * {bits}"
        )
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


def _check_search_work(shift: ShiftPair, bound: int, name: str) -> None:
    """Refuse a row bound whose bits, times a+b, exceed _MAX_SEARCH_WORK."""
    bits = bound.bit_length()
    if shift.degree * bits > _MAX_SEARCH_WORK:
        raise PreconditionError(f"(a+b) * bits({name}) must be at most {_MAX_SEARCH_WORK}, got {shift.degree} * {bits}")


def _run_search(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    shift = ShiftPair(args.a, args.b)
    if args.workers < 1:
        raise PreconditionError(f"search needs workers >= 1, got {args.workers}")
    if args.y_max >= 1 << _MAX_SEARCH_Y_BITS:
        raise PreconditionError(f"search --y-max must be below 2^{_MAX_SEARCH_Y_BITS}")
    _check_search_work(shift, args.y_max, "y_max")
    solutions = search(shift, args.y_max)
    if args.cache is not None:
        append_solutions(args.cache, solutions)
    records = [solution_to_dict(s) for s in solutions]
    _emit_records(records, args.format, out, _SOLUTION_KEYS, _solution_line, "solution(s)")


def _run_family(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    if args.i_max < 1:
        raise PreconditionError("family needs --i-max >= 1")
    if args.i_max > _MAX_FAMILY_INDEX:
        raise PreconditionError(f"family --i-max is at most {_MAX_FAMILY_INDEX}, got {args.i_max}")
    members = [family_member(i) for i in range(1, args.i_max + 1)]
    records = [{"i": m.i, "n": _digits(m.n), "k": _digits(m.k), "value": _digits(m.value)} for m in members]
    _emit_records(records, args.format, out, ("i", "n", "k", "value"), "i={i} n={n} k={k} value={value}".format_map)


def _run_curve(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
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


def _run_census(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    single = args.t is not None
    ranged = args.t_max is not None or args.m_min is not None
    if single == ranged:
        raise PreconditionError("census needs either --t, or both --t-max and --m-min")
    if single:
        if args.t >= _MAX_CENSUS_T:
            raise PreconditionError("census --t must be below 10^1000")
        records = [census_mod.multiplicity(args.t).to_json_dict()]
        if args.format == "json":
            _emit_json(records[0], out)
            return
    else:
        if args.t_max is None or args.m_min is None:
            raise PreconditionError("census scan needs both --t-max and --m-min")
        records = (r.to_json_dict() for r in census_mod.scan_high_multiplicity(args.t_max, args.m_min))
    _emit_records(records, args.format, out, ("t", "count"), _census_line)


def _run_intersect(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    s1 = ShiftPair(args.a1, args.b1)
    s2 = ShiftPair(args.a2, args.b2)
    if args.x_max >= 1 << _MAX_SEARCH_Y_BITS:
        raise PreconditionError(f"intersect --x-max must be below 2^{_MAX_SEARCH_Y_BITS}")
    for shift in (s1, s2):
        _check_search_work(shift, args.x_max, "x_max")
    records = [{"x": str(x), "y": str(y)} for x, y in census_mod.intersect_curves(s1, s2, args.x_max)]
    _emit_records(records, args.format, out, ("x", "y"), "x={x} y={y}".format_map, "intersection point(s)")


def _run_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    _no_csv(args.format, "verify")
    first_line: dict[tuple[int, int, int, int], int] = {}
    verified = 0
    for line, s in read_solutions(args.cache):
        first = first_line.setdefault((s.shift.a, s.shift.b, s.x, s.y), line)
        if first != line:
            err.write(f"duplicate: line {line} repeats the record of line {first}\n")
        verified += 1
    if args.format == "json":
        _emit_json({"verified": verified}, out)
    else:
        out.write(f"ok: {verified} record(s) verified\n")


def _run_plot(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    shift = ShiftPair(args.a, args.b)
    if shift.degree > _MAX_PLOT_DEGREE:
        raise PreconditionError(f"plot needs a+b <= {_MAX_PLOT_DEGREE}, got {shift.degree}")
    if args.y_step <= 0:
        raise PreconditionError("plot needs a positive --y-step")
    if args.precision <= 0:
        raise PreconditionError("enclosure width must be positive")
    sections = (args.y_max - args.y_min) // args.y_step + 1
    bits = (max(abs(args.y_min), abs(args.y_max), 1) * args.y_step.denominator).bit_length()
    if shift.degree**2 * bits > _MAX_PLOT_WORK:
        raise PreconditionError(
            f"plot needs (a+b)^2 * bits(max |y| * step denominator) <= {_MAX_PLOT_WORK}, got {shift.degree}^2 * {bits}"
        )
    per_section = _section_microseconds(shift.degree, shift.degree**2 * bits, _inverse_bits(args.precision))
    if sections * per_section > _MAX_PLOT_MICROSECONDS:
        raise PreconditionError(
            f"plot's estimated time, {sections} section(s) at {per_section} us each,"
            f" is more than {_MAX_PLOT_MICROSECONDS} us"
        )
    step_n, step_d = args.y_step.numerator, args.y_step.denominator
    ys = (Fraction(args.y_min * step_d + i * step_n, step_d) for i in range(sections))
    branches = curves_mod.real_branches(shift, ys, width=args.precision)
    # Rows are written as their section is isolated. The first section is
    # isolated before anything is written, so that an error raised there,
    # where real_branches checks its width, leaves the output empty; every
    # section is monic in x, so no later one can fail.
    first = next(branches, None)
    sections = branches if first is None else itertools.chain([first], branches)
    # text and csv coincide: plot data is CSV by nature
    _emit_records(_plot_rows(sections), "csv" if args.format == "text" else args.format, out, ("y", "x"))


def _section_microseconds(d: int, work: int, p: int) -> int:
    """A plot section's estimated time in microseconds: 200 + d^4/8 + (work/40)^2.5 + (d*p/256)^2, in integers."""
    return 200 + d**4 // 8 + math.isqrt(work**5 // 40**5) + (d * p) ** 2 // 2**16


def _plot_rows(sections: Iterable[tuple[Fraction, list[Interval]]]) -> Iterator[dict]:
    """One {"y", "x"} record per enclosure, x its midpoint (lo + hi)/2 rendered from the ends' integers."""
    for y0, enclosures in sections:
        y = _decimal_fixed(y0)
        for e in enclosures:
            (ln, ld), (hn, hd) = (e.lo.numerator, e.lo.denominator), (e.hi.numerator, e.hi.denominator)
            yield {"y": y, "x": _fixed_point(ln * hd + hn * ld, 2 * ld * hd)}


def dispatch(args: argparse.Namespace, out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Run the handler that the parsed invocation's subparser bound.

    Returns the process exit status; domain and cache failures print a
    one-line diagnostic to the error stream and return 1.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args.run(args, out, err)
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

    p = sub.add_parser("zeta", help=f"isolate the limiting ratio for a shift with a+b <= {_MAX_ZETA_DEGREE}")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--precision",
        type=_parse_fraction,
        default=Fraction(1, 10**12),
        help=f"enclosure width, e.g. 1e-12, with (a+b) * bits(1/precision) at most {_MAX_ZETA_WORK}",
    )
    add_format(p)
    p.set_defaults(run=_run_zeta)

    p = sub.add_parser("search", help="all solutions with y up to a bound")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--y-max",
        type=int,
        required=True,
        help=f"largest y, below 2^{_MAX_SEARCH_Y_BITS}, with (a+b) * bits(y_max) <= {_MAX_SEARCH_WORK}",
    )
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
    p.add_argument("--t", type=int, default=None, help="one value, below 10^1000")
    p.add_argument(
        "--t-max",
        type=int,
        default=None,
        help="largest value scanned: at most 10^16, or 2*10^9 when --m-min is 4 or less",
    )
    p.add_argument(
        "--m-min",
        type=int,
        default=None,
        help="least N(t) reported, at least 3; at 4 or less every C(n,2) is a record, hence the lower --t-max bound",
    )
    add_format(p)
    p.set_defaults(run=_run_census)

    p = sub.add_parser("intersect", help="common solutions of two shift equations")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument(
        "--x-max",
        type=int,
        required=True,
        help=f"largest x, below 2^{_MAX_SEARCH_Y_BITS}, with (a+b) * bits(x_max) <= {_MAX_SEARCH_WORK} for both",
    )
    add_format(p)
    p.set_defaults(run=_run_intersect)

    p = sub.add_parser("verify", help="re-verify a solution cache")
    p.add_argument("--cache", type=str, required=True)
    add_format(p)
    p.set_defaults(run=_run_verify)

    p = sub.add_parser(
        "plot",
        help=f"branch data as y,x rows, for a+b <= {_MAX_PLOT_DEGREE} and (a+b)^2 * bits(|y|) <= {_MAX_PLOT_WORK}",
        description=(
            f"Branch data as y,x rows. A plot is refused before any section is isolated when its estimated"
            f" time, sections * (200 + d^4/8 + (W/40)^2.5 + (d*p/256)^2) microseconds, is more than"
            f" {_MAX_PLOT_MICROSECONDS // 10**6} s; d is a+b, W is (a+b)^2 * bits(max(|y_min|, |y_max|, 1) * q)"
            f" as under --y-step, and p is bits(1/precision)."
        ),
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--y-min", type=int, required=True)
    p.add_argument("--y-max", type=int, required=True)
    p.add_argument(
        "--y-step",
        type=_parse_fraction,
        default=Fraction(1),
        help=f"with q its denominator, (a+b)^2 * bits(max(|y_min|, |y_max|, 1) * q) must be at most {_MAX_PLOT_WORK}",
    )
    p.add_argument(
        "--precision",
        type=_parse_fraction,
        default=Fraction(1, 10**13),
        help="enclosure width, e.g. 1e-13; its bits p = bits(1/precision) enter the time estimate",
    )
    add_format(p, default="csv")
    p.set_defaults(run=_run_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
