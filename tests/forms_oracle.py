"""The five logarithmic one-forms and the projected letters, written
out by hand: an independent reference for formspace's exact table of
the forms, against which the tests check the wedge pairing and the
quadrature's pullback."""


def form_pullback(tag, z1, z2, dz1, dz2):
    """omega(gamma(t)) gamma'(t) for one letter at the point (z1, z2)
    of a linear leg with derivative (dz1, dz2).  Components with zero
    derivative are skipped, so axis-riding legs never divide by zero.
    Plain arithmetic, so z1 and z2 may also be arrays of points.  The
    letter is one of z1, z11, z2, z22, z12, z12_1 and z12_2."""
    out = 0.0
    if tag == "z1":
        if dz1 != 0:
            out = dz1 / z1
    elif tag == "z11":
        if dz1 != 0:
            out = dz1 / (1 - z1)
    elif tag == "z2":
        if dz2 != 0:
            out = dz2 / z2
    elif tag == "z22":
        if dz2 != 0:
            out = dz2 / (1 - z2)
    else:
        den = 1 - z1 * z2
        if tag != "z12_2" and dz1 != 0:
            out = out + z2 * dz1 / den
        if tag != "z12_1" and dz2 != 0:
            out = out + z1 * dz2 / den
    return out
