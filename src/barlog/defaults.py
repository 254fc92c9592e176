"""Defaults of the run settings, in a module of their own so that the
command line reads them without loading the modules that use them."""

# The cap on the degree of the bar construction and its decompositions.
DEFAULT_DEGREE_CAP = 6

# The cap on series terms and the verification tolerance.
DEFAULT_MAX_N = 100000
DEFAULT_TOL = 1e-8
