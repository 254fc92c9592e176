"""Defaults of the run settings, in a module of their own so that the
command line reads them without loading the modules that use them."""

# The cap on the degree of the bar construction and its decompositions.
DEFAULT_DEGREE_CAP = 6

# The cap on series terms, the verification tolerance and the point
# (z1, z2) at which the numeric checks evaluate.
DEFAULT_MAX_N = 100000
DEFAULT_TOL = 1e-8
DEFAULT_POINT = (0.3, 0.4)
