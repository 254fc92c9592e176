"""High-precision reference for the nested series of a HyperlogTerm.

The same recursion as hyperlog.nested_sum, in mpmath at 50 digits, on
the exact binary values of the float inputs.  The number of terms comes
from a majorant independent of the library's: each of the at most
m^(r-1) chains of T[0](m) is at most max(1, |alpha|)^m in modulus, so
with q = |z| max(1, |alpha|) the tail beyond N is at most
q^(N+1) (N+1)^(r-1) / (1 - q (1 + 1/(N+1))^(r-1)).  The sum runs until
that is below REF_TAIL, which the tests add to the library's bound.

mp_mzv builds a multiple zeta value from those series at 1/2 by the
Hoelder convolution, with the error that the series' tails carry into
the products.
"""

from functools import cache

import mpmath

from barlog.hyperlog import ONE, HyperlogTerm

DPS = 50
REF_TAIL = 1e-30


def _terms_needed(q, r):
    n = 1
    while True:
        ratio = q * (1 + 1 / (n + 1)) ** (r - 1)
        if ratio < 1 and q ** (n + 1) * (n + 1) ** (r - 1) < REF_TAIL * (
                1 - ratio):
            return n
        n += 1


def mp_series(t, z1, z2):
    """(value, tail bound) of the term at (z1, z2): the value an mpc
    within the returned tail bound of the exact series."""
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z1 if t.main_var == 1 else z2)
        param = mpmath.mpc(z2 if t.main_var == 1 else z1)
        alphas = [mpmath.mpc(1) if a == ONE else param for a in t.letters]
        ks, r = t.index, t.depth
        # Rounded up, so that float rounding cannot shorten the sum.
        q = float(abs(z)) * max(1.0, float(abs(param))) * (1 + 1e-12)
        T = [mpmath.mpc(0)] * r
        C = [mpmath.mpc(0)] * (r - 1)
        ar_pow = z_pow = mpmath.mpc(1)
        total = mpmath.mpc(0)
        for n in range(1, _terms_needed(q, r) + 1):
            for j in range(r - 1):
                C[j] = alphas[j] * (C[j] + T[j + 1])
                T[j] = C[j] / n ** ks[j]
            ar_pow *= alphas[r - 1]
            T[r - 1] = ar_pow / n ** ks[r - 1]
            z_pow *= z
            total += z_pow * T[0]
        return total, REF_TAIL


def mzv_word(index):
    """The word of zeta(index) over '0' (dt/t) and '1' (dt/(1-t)),
    outermost letter first: each entry k gives '0'^(k-1) '1'."""
    return "".join("0" * (k - 1) + "1" for k in index)


@cache
def _mp_li_half(word):
    """Li(word; 1/2) of a word ending in '1' (or empty), at 50 digits."""
    index = tuple(len(run) + 1 for run in word.split("1")[:-1])
    if not index:
        return mpmath.mpf(1), 0.0
    value, tail = mp_series(HyperlogTerm(1, index, (ONE,) * len(index)),
                            0.5, 0.0)
    return value.real, tail


def mp_mzv(index):
    """(value, error bound) of zeta(index), k1 >= 2, at 50 digits:

        zeta(w) = sum_j Li(rev-swap(w[:j]); 1/2) Li(w[j:]; 1/2),

    rev-swap reversing a word and exchanging '0' and '1'."""
    word = mzv_word(index)
    swap = str.maketrans("01", "10")
    with mpmath.workdps(DPS):
        total, error = mpmath.mpf(0), 0.0
        for j in range(len(word) + 1):
            a, ea = _mp_li_half(word[:j][::-1].translate(swap))
            b, eb = _mp_li_half(word[j:])
            total += a * b
            error += float(abs(a)) * eb + float(abs(b)) * ea + ea * eb
        return total, error
