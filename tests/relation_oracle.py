"""Reference rows of the relation matrix C_s, through phi.

The library reads each relation from its row of C_s, the change of
product basis 2x1 -> 1x2 (relgen._relation_rows), built from the word
rewriting alone.  The route it replaced solves the degree-s kernel,
certifies phi of the pair and splits it to 2x1; the tests compare the
two on every pair.
"""

from barlog.duality import phi, tensor_split


def relation_row_via_phi(w1, w2):
    """The 2x1 splitting of the certified phi of a 1x2 pair, as
    {(W', W''): coeff}."""
    return tensor_split(phi(w1, w2, direction="1x2"), "2x1")
