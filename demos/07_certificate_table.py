"""Certificates of all 66 curves with a+b <= 12.

For each shift (a,b) the curve F(x,y) = 0 of degree d = a+b is checked
for singular points, in the affine plane and at infinity. The affine
check, affine_singular_check, proves its verdict modulo the prime
2^30 - 35, or 2^30 - 41 should that proof fail; primes below 2^30 keep
every residue in one digit of a Python int. One eliminant, R = Res_y(F,F_y), is interpolated from its
values at d(d-1)+1 points. A singular point meets F_y with multiplicity
at least 2, so it would give R a multiple root; full degree d(d-1) and
a constant gcd(R, R') mod the prime prove R squarefree over the
integers, and so the affine curve smooth. The certificate keeps the
prime that proved it as affine_prime, which the JSON form of
curve --certify prints; a proof that failed at both primes would print
the verdict inconclusive. No exact eliminant is formed. A smooth plane
curve of degree d has genus (d-1)(d-2)/2.

No finiteness column is printed. The library's finiteness label still
comes from the shape of the shift (a != b, or (1,1)), not from these
verdicts; by Siegel's theorem every smooth curve of genus >= 1 below
has finitely many integral points, but that step is not yet what the
label reports. The elapsed time goes to stderr, so stdout is the same
on every run.
"""

import sys
import time

from pascalrepeats import ShiftPair, certify

MAX_DEGREE = 12


def main() -> None:
    header = f"{'shift':>7} {'degree':>6} {'affine':>7} {'infinity':>8} {'genus':>5}"
    print(header)
    print("-" * len(header))
    start = time.perf_counter()
    smooth = 0
    for d in range(2, MAX_DEGREE + 1):
        for a in range(1, d):
            cert = certify(ShiftPair(a, d - a))
            genus = "?" if cert.genus is None else cert.genus
            smooth += cert.genus is not None
            print(
                f"{f'({a},{d - a})':>7} {cert.degree:>6} {cert.affine_nonsingular.value:>7} "
                f"{cert.infinity_nonsingular.value:>8} {genus:>5}"
            )
    shifts = MAX_DEGREE * (MAX_DEGREE - 1) // 2
    print(f"{smooth} of {shifts} curves certified smooth")
    print(f"({time.perf_counter() - start:.1f} s for all {shifts} certificates)", file=sys.stderr)


if __name__ == "__main__":
    main()
