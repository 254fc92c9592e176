"""Fixed work that measures how fast the machine is running right now.

    python3 reference.py

run.py times one fresh interpreter running this script before and after
every timed child, and states the children's times at the speed where
this script takes REFERENCE_S seconds (see run.py).  The work is of the
kind barlog does: exact fractions, tuple keys and dict updates in pure
Python, with no import of barlog or numpy.  It prints a checksum that
run.py compares with CHECKSUM, so that it is known to have done all of
its work.
"""

from fractions import Fraction

ROUNDS = 40000
CHECKSUM = "-494035/84 1030780768"


def work(rounds=ROUNDS):
    acc, table = Fraction(0), {}
    for i in range(1, rounds + 1):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i % 13 + 1, i % 7 + 1)
        acc -= Fraction(i % 11 + 1, i % 5 + 1)
    return f"{acc} {sum(table.values()) % 2**31}"


if __name__ == "__main__":
    print(work())
