"""Reference rewriting at the rightmost reducible position, in either
direction.

The library rewrites each word at its leftmost reducible position with
one rule table, the 1x2 one (ipbenv._RULES), and reads every 2x1
normal form through sigma.  This oracle rewrites 2x1 words directly,
with its own 2x1 rule table (the sigma images of the 1x2 rules) and its
own split of a word in normal form.  Since the rules terminate, equal
results on every word show that the normal form does not depend on
where each rewriting step is applied, and that reading 2x1 through
sigma is the direct 2x1 rewriting.
"""

from functools import cache

from barlog.errors import BarlogError
from barlog.ipbenv import DIRECTIONS, _RULES
from barlog.linalg import vec_add_into

# sigma on the Lie letters: z1 <-> z2.
SIGMA = {"Z1": "Z2", "Z2": "Z1", "Z11": "Z22", "Z22": "Z11", "Z12": "Z12"}


def sigma(word):
    return tuple(SIGMA[x] for x in word)


RULES = {
    "1x2": _RULES,
    "2x1": {sigma(key): [(sigma(w), c) for w, c in repl]
            for key, repl in _RULES.items()},
}


def split_pair(word, direction):
    """(W', W'') for a word in normal form: W' over the left letters,
    W'' over the right ones (BarlogError otherwise)."""
    right = set(DIRECTIONS[direction].right_letters)
    cut = next((i for i, x in enumerate(word) if x in right), len(word))
    w1, w2 = word[:cut], word[cut:]
    if any(x not in right for x in w2):
        raise BarlogError(f"word {word} is not in {direction} normal form")
    return w1, w2


@cache
def reduce_word_rightmost(word, direction):
    """Rewrite a single word to the product basis of the named
    direction, always at the rightmost reducible position; returns
    {(W', W''): coeff}."""
    rules = RULES[direction]
    movers = set(DIRECTIONS[direction].right_letters)
    for i in reversed(range(len(word) - 1)):
        if word[i] in movers and word[i + 1] not in movers:
            break
    else:
        return {split_pair(word, direction): 1}
    out = {}
    for repl, coeff in rules[(word[i], word[i + 1])]:
        vec_add_into(out, reduce_word_rightmost(
            word[:i] + repl + word[i + 2:], direction), coeff)
    return out
