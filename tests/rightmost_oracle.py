"""Reference rewriting at the rightmost reducible position.

The library rewrites each word at its leftmost reducible position
(ipbenv._reduce_word).  The tests compare the two choices: since the
rules terminate, equal results on every word show that the normal form
does not depend on where each rewriting step is applied.
"""

from functools import cache

from barlog.ipbenv import DIRECTIONS, _split_pair
from barlog.linalg import vec_add_into


@cache
def reduce_word_rightmost(word, direction):
    """Rewrite a single word to the product basis of the named
    direction, always at the rightmost reducible position; returns
    {(W', W''): coeff}."""
    d = DIRECTIONS[direction]
    movers = set(d.right_letters)
    for i in reversed(range(len(word) - 1)):
        if word[i] in movers and word[i + 1] not in movers:
            break
    else:
        return {_split_pair(word, d): 1}
    out = {}
    for repl, coeff in d.rules[(word[i], word[i + 1])]:
        vec_add_into(out, reduce_word_rightmost(
            word[:i] + repl + word[i + 2:], direction), coeff)
    return out
