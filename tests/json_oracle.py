"""The dict forms that the CLI's JSON is checked against.

The CLI writes a WordPoly and a Relation straight from its fields;
json.dumps(..., indent=2, sort_keys=True) of these dicts is the text it
must write, byte for byte.
"""


def poly_to_dict(p):
    return {
        "alphabet": list(p.alphabet),
        "terms": [{"word": list(w), "coeff": str(c)}
                  for w, c in p.sorted_terms()],
    }


def relation_to_dict(r, verified=None, residual=None):
    out = {
        "degree": r.degree,
        "w1": list(r.w1),
        "w2": list(r.w2),
        "trivial": r.trivial,
        "lhs": [{"term": t.render(), "coeff": "1"} for t in r.lhs],
        "rhs": [{"factor2": t2.render(), "factor1": t1.render(),
                 "coeff": str(c)} for c, t2, t1 in r.sorted_rhs()],
    }
    if verified is not None:
        out["verified"] = verified
        out["residual"] = residual
    return out
