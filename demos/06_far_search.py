"""Every solution of the small shifts up to y = 10^30.

For each shift (a,b) with 3 <= a+b <= 6, search lists every solution
of C(x,y) = C(x-a,y+b) with y <= 10^30. Rows beyond the first few
hundred are not walked one by one: search proves, for whole blocks of
rows, two lines that enclose each row's real crossing, and checks only
the rows where an integer fits between them. The nontrivial solutions
are three small repeats: 6 = C(6,1) = C(4,2) on (2,1), 3003 =
C(15,5) = C(14,8) on (1,3) and 10 = C(10,1) = C(5,2) on (5,1).

Each shift's curve is also certified here. A smooth plane curve of
degree d >= 3 has genus (d-1)(d-2)/2 >= 1, and by Siegel's theorem it
has finitely many integral points. The theorem gives no bound on their
size, though, so the list below is complete only up to y = 10^30: no
computation here rules out a solution beyond it. The elapsed time goes
to stderr, so stdout is the same on every run.
"""

import sys
import time

from pascalrepeats import ShiftPair, certify, search

Y_MAX = 10**30


def main() -> None:
    print("Every solution with y <= 10^30, for each shift with 3 <= a+b <= 6:")
    start = time.perf_counter()
    for d in range(3, 7):
        for a in range(1, d):
            shift = ShiftPair(a, d - a)
            genus = certify(shift).genus
            curve = "not certified smooth" if genus is None else f"smooth, genus {genus}"
            print(f"  ({shift.a},{shift.b}), {curve}:")
            for s in search(shift, Y_MAX):
                trivial = " (trivial)" if s.trivial else ""
                print(f"      C({s.x},{s.y}) = C({s.x - a},{s.y + shift.b}) = {s.value}{trivial}")
    print(f"({time.perf_counter() - start:.1f} s for all 14 shifts)", file=sys.stderr)
    print()
    print("Complete only up to y = 10^30. By Siegel's theorem each curve of genus")
    print("at least 1 has finitely many integral points, but the theorem is")
    print("ineffective: it bounds none of them, so a larger solution is not ruled out.")


if __name__ == "__main__":
    main()
