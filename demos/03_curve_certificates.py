"""Certify the plane curves behind C(x,y) = C(x-a,y+b).

Each shift (a,b) turns the equation into an integer polynomial curve of
degree a+b whose lattice points inside the triangle are exactly the
solutions. Smoothness is decided by resultant elimination: if the curve
and both partial derivatives share no point, the genus-degree formula
applies, and for genus >= 1 Siegel's theorem makes the solution set
finite. The a=b=1 conic is the one genuine exception: genus 0 and an
infinite family living on it.
"""

from pascalrepeats import ShiftPair, build_curve, certify, quad_factor_test
from pascalrepeats.polynomials import format_bipoly, format_unipoly


def main() -> None:
    print("The quadratic case (1,1):")
    f = build_curve(ShiftPair(1, 1))
    print(f"  F(x,y) = {format_bipoly(f)}")
    print(f"  leading form {format_bipoly(f.homogeneous_part(f.total_degree))} controls x/y -> phi+1")

    print()
    header = f"{'shift':>7} {'degree':>6} {'affine':>7} {'infinity':>8} {'genus':>5} {'finiteness':>13}"
    print(header)
    print("-" * len(header))
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3)]:
        cert = certify(ShiftPair(a, b))
        genus = "?" if cert.genus is None else cert.genus
        print(
            f"  ({a},{b}) {cert.degree:>6} {cert.affine_nonsingular.value:>7} "
            f"{cert.infinity_nonsingular.value:>8} {genus:>5} {cert.finiteness.value:>13}"
        )

    print()
    print("Where does the golden ratio come from algebraically?  The polynomial")
    print("x^n - (x+1)^r picks up a real quadratic factor only on the diagonal n=2r:")
    for n, r in [(2, 1), (6, 3), (10, 5), (9, 4), (12, 5)]:
        hit = quad_factor_test(n, r)
        shown = format_unipoly(hit) if hit is not None else "none"
        print(f"  n={n:2d} r={r:2d}: {shown}")


if __name__ == "__main__":
    main()
