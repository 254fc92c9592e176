"""Nested-sum indices for the tests: every composition of a weight, and
every pair of nonempty indices up to a total weight."""


def compositions(weight):
    """Every index (tuple of positive ints) of the given total weight,
    in lexicographic order; the empty index for weight 0."""
    if weight == 0:
        return [()]
    return [(first,) + rest for first in range(1, weight + 1)
            for rest in compositions(weight - first)]


def index_pairs(max_weight):
    """Every pair (k, l) of nonempty indices of total weight 2 to
    max_weight: 49 pairs for max_weight 5."""
    return [(k, l) for total in range(2, max_weight + 1)
            for wk in range(1, total)
            for k in compositions(wk) for l in compositions(total - wk)]
