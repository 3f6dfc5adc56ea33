#!/usr/bin/env python3
"""Tabulate the agreement between the two fiber-surface models.

For each n: Euler characteristics of S(q_n) and S(nabla_n), closure
component counts, and whether the boundary Alexander polynomials agree up
to units.  The Alexander comparison grows with n; --max-alexander bounds
where it is attempted.
"""

import argparse

from qpfiber.braidcore import beta, exponent_sum, permutation_cycles
from qpfiber.constructions import nabla, q_rep
from qpfiber.invariants import alexander_from_braid, eq_up_to_units
from qpfiber.surface import BraidedSurface, euler_characteristic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-alexander", type=int, default=7)
    args = parser.parse_args()

    header = f"{'n':>2} {'nu':>3} {'chi(q)':>7} {'chi(nab)':>8} {'comp(q)':>7} {'comp(nab)':>9} {'e(q)':>5} {'alexander':>10}"
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_n + 1):
        q = q_rep(n)
        nab = nabla(n)
        chi_q = euler_characteristic(BraidedSurface(q))
        chi_n = euler_characteristic(BraidedSurface(nab))
        comp_q = len(permutation_cycles(beta(q)))
        comp_n = len(permutation_cycles(beta(nab)))
        if n <= args.max_alexander:
            agree = eq_up_to_units(alexander_from_braid(beta(q)), alexander_from_braid(beta(nab)))
            alex = "agree" if agree else "DISAGREE"
        else:
            alex = "skipped"
        print(
            f"{n:>2} {q.strands:>3} {chi_q:>7} {chi_n:>8} {comp_q:>7} {comp_n:>9} "
            f"{exponent_sum(beta(q)):>5} {alex:>10}"
        )
        assert chi_q == chi_n == 1 - (n - 1) ** 2


if __name__ == "__main__":
    main()
