"""Fixed pure-Python reference kernel: exact Fraction elimination on the
10 x 10 Hilbert matrix, repeated.  Its time tracks the speed of the box
for the kind of work the program does (allocation-heavy exact arithmetic
in the interpreter), so report times are also given as a ratio to it.

Run as a script it computes the kernel once and checks the result; the
benchmark times the whole process, interpreter start included, as a
report process is timed.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial, prod

SIZE = 10
REPEATS = 15


def kernel() -> Fraction:
    """Determinant of the Hilbert matrix of order SIZE, REPEATS times."""
    det = Fraction(0)
    for _ in range(REPEATS):
        m = [[Fraction(1, i + j + 1) for j in range(SIZE)] for i in range(SIZE)]
        det = Fraction(1)
        for c in range(SIZE):
            det *= m[c][c]
            for r in range(c + 1, SIZE):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def hilbert_determinant(n: int) -> Fraction:
    """Closed form c(n)^4 / c(2n) with c(n) = 1! 2! ... (n-1)!."""
    def c(m: int) -> int:
        return prod(factorial(i) for i in range(1, m))
    return Fraction(c(n) ** 4, c(2 * n))


def main() -> int:
    if kernel() != hilbert_determinant(SIZE):
        print("reference kernel gave a wrong determinant", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
