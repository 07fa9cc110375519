#!/usr/bin/env python3
"""Fischer decomposition demo: split a few polynomials into towers of
monogenic components and tabulate the dimensions of the monogenic spaces.

The dimension of the degree-k monogenic space always equals
dim P_k - dim P_{k-1}, reflecting the direct sum P_k = M_k + x P_{k-1};
the table below recomputes it from the kernel of the Dirac matrix.
"""

from qclifford import is_monogenic, parse_poly
from qclifford.fischer import fischer_full, monogenic_dimension, space_dimension


def show_tower(text, m):
    P = parse_poly(text, m)
    tower = fischer_full(P)
    k = len(tower.components) - 1
    print(f"input (m={m}): {P}")
    for s, comp in enumerate(tower.components):
        status = "monogenic" if is_monogenic(comp) else "NOT MONOGENIC"
        print(f"  x^{s} * [{comp}]   ({status})")
    print(f"  recomposes exactly: {tower.recompose() == P}")
    print()


def main():
    show_tower("x1^2", 2)
    show_tower("x1^3", 2)
    show_tower("x1*x2*x3", 3)

    print("dimension of the degree-k monogenic space (nullity of the Dirac matrix)")
    print(f"{'m':>3} {'k':>3} {'dim M_k':>8} {'dim P_k - dim P_(k-1)':>22}")
    for m in (1, 2, 3, 4):
        for k in range(1, 5):
            nullity = monogenic_dimension(m, k)
            formula = space_dimension(m, k) - space_dimension(m, k - 1)
            print(f"{m:>3} {k:>3} {nullity:>8} {formula:>22}")


if __name__ == "__main__":
    main()
