"""Command-line front end.

Subcommands: basis, phi, relations, harmonic, eval, decompose, verify.
Outputs are deterministic (sorted term order, stable JSON key order);
data goes to stdout (or --out), diagnostics to stderr.  Exit codes: 0
success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import chain

from .defaults import DEFAULT_DEGREE_CAP, DEFAULT_MAX_N, DEFAULT_TOL
from .errors import BarlogError


class Config(namedtuple("Config",
                         "degree_cap series_terms tolerance format",
                         defaults=(DEFAULT_DEGREE_CAP, DEFAULT_MAX_N,
                                   DEFAULT_TOL, "json"))):
    """Run settings: the degree cap, the cap on series terms, the
    verification tolerance and the output format ("json" or "text");
    each field is a config key, and its setting flag writes it."""
    __slots__ = ()

    def validate(self):
        """Name a bad setting by its flag and its config key."""
        for flag, key in (("--degree-cap", "degree_cap"),
                          ("--terms", "series_terms")):
            if getattr(self, key) <= 0:
                raise ValueError(f"{flag} ({key}) must be positive, "
                                 f"got {getattr(self, key)}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("--tol (tolerance) must be finite and positive, "
                             f"got {self.tolerance}")
        if self.format not in ("json", "text"):
            raise ValueError("--format (format) must be json or text, "
                             f"got {self.format!r}")


def load_config(path):
    """{key: value} of a file of key = value lines ('#' comments): each
    key a Config field, each value of the type of that field's default;
    ValueError naming the line otherwise."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, raw = map(str.strip, line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            if key not in Config._fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = type(Config._field_defaults[key])(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def parse_z_word(text):
    """Comma-separated upper-case letters; empty string is the unit."""
    text = text.strip()
    return tuple(x.strip() for x in text.split(",")) if text else ()


@cache
def _term_re():
    return re.compile(
        r"^L\[(?P<index>[0-9,]*)\|(?P<letters>[a-z,]*)\]@z(?P<main>[12])$")


def parse_term(text):
    """Parse the rendered term syntax L[k1,...|letters]@zN, no entry empty."""
    from .hyperlog import ONE, PARAM, HyperlogTerm

    m = _term_re().match(text.strip())
    if not m:
        raise ValueError(f"malformed term {text!r}; "
                         "expected L[2,1|one,param]@z1")
    index, letters = (tuple(g.split(",")) if g else ()
                      for g in m.group("index", "letters"))
    if "" in index + letters:
        raise ValueError(f"empty entry in term {text!r}")
    index = tuple(map(int, index))
    if any(a not in (ONE, PARAM) for a in letters):
        raise ValueError(f"term letters must be one/param: {text!r}")
    return HyperlogTerm(int(m.group("main")), index, letters)


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


class _Rendered(str):
    """JSON text that json_chunks writes as it is."""
    __slots__ = ()


def json_chunks(x, indent="\n"):
    """json.dumps(x, indent=2, sort_keys=True), byte for byte, in chunks,
    without the pure-Python encoder that json.dumps falls back to when
    indent is set: strings and scalars go through the C encoder.  A
    dict, list, tuple or iterator is written one item at a time, so the
    whole text is never held as one string; a tuple or an iterator is
    written as a list.  A leaf is one chunk: _Rendered text as it is, a
    tuple of plain strings (a word) as its cached _word_json, and a
    WordPoly as json.dumps writes its poly_to_dict (the dict form of
    tests/json_oracle.py), its terms sorted by p.sorted_terms().
    Non-finite floats raise ValueError, as with allow_nan=False, so the
    output is always standard JSON."""
    if isinstance(x, dict):
        brackets = "{}"
        items = ((_encode_str(k) + ": ", x[k]) for k in sorted(x))
    elif type(x) is tuple and all(type(v) is str for v in x):
        yield _word_json(x, indent)
        return
    elif isinstance(x, (list, tuple, Iterator)):
        brackets = "[]"
        items = (("", v) for v in x)
    else:
        yield _leaf_json(x, indent)
        return
    inner = indent + "  "
    sep = brackets[0] + inner
    for key, v in items:
        yield sep + key
        yield from json_chunks(v, inner)
        sep = "," + inner
    yield indent + brackets[1] if sep[0] == "," else brackets


def _leaf_json(x, indent):
    """A value that json_chunks writes as one chunk."""
    if isinstance(x, _Rendered):
        return x
    if isinstance(x, str):
        return _encode_str(x)
    # No WordPoly exists before words is loaded, and eval and harmonic
    # never load it.
    words = sys.modules.get(__package__ + ".words")
    if words and isinstance(x, words.WordPoly):
        return _poly_json(x.alphabet, x.sorted_terms(), indent)
    return _encode_scalar(x)


def _list_json(items, indent):
    """A JSON list, at an indent, of items already rendered at the
    indent one level in."""
    inner = indent + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + indent + "]" if body else "[]"


@cache
def _word_json(word, indent):
    """A word (or an alphabet) as a JSON list of strings at an indent."""
    return _list_json(map(_encode_str, word), indent)


def _poly_json(alphabet, terms, indent):
    """json_chunks(poly_to_dict(p), indent) as one chunk, for the
    polynomial p over alphabet with these (word, coeff) terms, in the
    dict form of tests/json_oracle.py, without building a dict per term:
    {"alphabet": [...], "terms": [{"coeff", "word"}, ...]}.  The terms
    are written in the order given: the caller passes p.sorted_terms(),
    or terms that are in that order already."""
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    terms = _list_json((f'{{{i3}"coeff": {_encode_str(str(c))},'
                        f'{i3}"word": {_word_json(w, i3)}{i2}}}'
                        for w, c in terms), i1)
    return (f'{{{i1}"alphabet": {_word_json(alphabet, i1)},'
            f'{i1}"terms": {terms}{indent}}}')


def _finite_or_none(x):
    """A bound for JSON output: null where it is not finite (a cap too
    small for the tail majorant to converge gives inf)."""
    return x if math.isfinite(x) else None


def _write(chunks, out):
    """Write an iterable of strings to the --out file, or to stdout
    when there is none, each as it is produced."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# -- subcommand handlers -----------------------------------------------------
#
# Each handler imports the modules that only its command needs, so that
# a run loads no more of the package than its command uses.  It returns
# (payload, text, exit code) once everything that can fail is computed,
# so a failing command writes no output.

def _cmd_basis(args, cfg):
    from .formspace import bar0_basis, bar_basis

    basis = (bar0_basis if args.b0 else bar_basis)(
        args.degree, cap=cfg.degree_cap)
    payload = {
        "degree": args.degree,
        "reduced": bool(args.b0),
        "dimension": len(basis),
        "elements": basis,
    }

    def text():
        yield f"degree: {args.degree}\ndimension: {len(basis)}\n"
        for b in basis:
            yield f"{b!r}\n"

    return payload, text, 0


def _cmd_phi(args, cfg):
    from .duality import phi

    w1, w2 = parse_z_word(args.w1), parse_z_word(args.w2)
    p = phi(w1, w2, direction=args.direction, cap=cfg.degree_cap)
    payload = {"w1": w1, "w2": w2, "direction": args.direction, "phi": p}
    return payload, lambda: (f"{p!r}\n",), 0


def _cmd_relations(args, cfg):
    from .relgen import generate_all, verify_relation

    relations = generate_all(args.degree, cfg.degree_cap)
    # Every relation is checked before the first byte is written, so a
    # failing evaluation leaves no partial output.
    checks = [(None, None)] * len(relations)
    if args.verify:
        reports = (verify_relation(r, [(args.z1, args.z2)],
                                   cfg.series_terms, cfg.tolerance)
                   for r in relations)
        checks = [(all(entry["passed"] for entry in rep),
                   max(entry["residual"] for entry in rep))
                  for rep in reports]
    payload = {"count": len(relations), "degree": args.degree,
               "relations": (_relation_json(r, *check)
                             for r, check in zip(relations, checks))}

    def text():
        yield f"degree: {args.degree}\ncount: {len(relations)}\n"
        for r, (verified, _) in zip(relations, checks):
            yield (r.render() + (" (trivial)" if r.trivial else "")
                   + {None: "", True: " [ok]", False: " [FAILED]"}[verified]
                   + "\n")

    failed = any(verified is False for verified, _ in checks)
    return payload, text, 1 if failed else 0


# Indents, in the relations output, of a relation, of its fields, of
# an entry of its lhs or rhs, and of that entry's fields.
_RELATION = "\n    "
_FIELD = _RELATION + "  "
_ENTRY = _FIELD + "  "
_ENTRY_FIELD = _ENTRY + "  "


def _relation_json(r, verified=None, residual=None):
    """json_chunks(relation_to_dict(r, verified, residual), _RELATION) as
    one chunk, with the dict form of tests/json_oracle.py, written
    straight from the Relation."""
    lhs = _list_json((f'{{{_ENTRY_FIELD}"coeff": "1",'
                      f'{_ENTRY_FIELD}"term": {_encode_str(t.render())}'
                      f'{_ENTRY}}}' for t in r.lhs), _FIELD)
    rhs = _list_json((f'{{{_ENTRY_FIELD}"coeff": {_encode_str(str(c))},'
                      f'{_ENTRY_FIELD}"factor1": {_encode_str(t1.render())},'
                      f'{_ENTRY_FIELD}"factor2": {_encode_str(t2.render())}'
                      f'{_ENTRY}}}' for c, t2, t1 in r.sorted_rhs()), _FIELD)
    fields = [f'"degree": {r.degree}', f'"lhs": {lhs}']
    if verified is not None:
        fields.append(f'"residual": {_encode_scalar(residual)}')
    fields += [f'"rhs": {rhs}', f'"trivial": {_encode_scalar(r.trivial)}']
    if verified is not None:
        fields.append(f'"verified": {_encode_scalar(verified)}')
    fields += [f'"w1": {_word_json(r.w1, _FIELD)}',
               f'"w2": {_word_json(r.w2, _FIELD)}']
    return _Rendered(
        "{" + _FIELD + ("," + _FIELD).join(fields) + _RELATION + "}")


def _index_arg(flag, text):
    """The positive integers of a comma-separated --left or --right
    index."""
    try:
        index = tuple(int(k) for k in text.split(","))
        if min(index) >= 1:
            return index
    except ValueError:
        pass
    raise ValueError(f"{flag} expects comma-separated positive integers, "
                     f"got {text!r}")


def _cmd_harmonic(args, cfg):
    from .harmonic import (eval_sum, eval_tagged, mpl_harmonic_expand,
                           recursion_expand)
    from .hyperlog import within_bound

    left = _index_arg("--left", args.left)
    right = _index_arg("--right", args.right)
    expansion = mpl_harmonic_expand(left, right)
    matches = expansion == recursion_expand(left, right)
    terms = sorted(expansion.items())
    payload = {"left": left, "right": right,
               "terms": ({"index": index, "numbering": numbering,
                          "orientation": orientation, "coeff": str(c)}
                         for (index, numbering, orientation), c in terms),
               "recursion_matches": matches}
    failed = not matches
    if args.numeric:
        try:
            z1, z2 = map(float, args.numeric.split(","))
        except ValueError:
            raise ValueError("--numeric expects z1,z2") from None
        n = cfg.series_terms
        # Li_l(z2) is Li(l, 0; z2, z1): a main-z2 term.
        lhs, lhs_bound = eval_tagged(
            (left, (len(left), 0), "12"), z1, z2, n).times(
            eval_tagged((right, (len(right), 0), "21"), z1, z2, n))
        rhs, rhs_bound = eval_sum(expansion, z1, z2, n)
        residual = abs(lhs - rhs)
        bound = lhs_bound + rhs_bound
        payload["residual"] = residual
        payload["bound"] = _finite_or_none(bound)
        failed |= not within_bound(residual, bound, cfg.tolerance)

    def text():
        yield f"Li{left}(z1) * Li{right}(z2) =\n"
        for (index, numbering, orientation), c in terms:
            yield f"  {c} * Li_{list(index)}{numbering} [{orientation}]\n"
        if "residual" in payload:
            yield f"residual: {payload['residual']:.3e}\n"

    return payload, text, 1 if failed else 0


def _cmd_eval(args, cfg):
    from .hyperlog import eval_series

    term = parse_term(args.term)
    r = eval_series(term, args.z1, args.z2, cfg.series_terms)
    payload = {"term": term.render(),
               "value": [r.value.real, r.value.imag],
               "bound": _finite_or_none(r.truncation_bound),
               "terms_used": r.terms_used}
    return payload, lambda: (f"{term.render()} = {r.value!r} "
                             f"(bound {r.truncation_bound:.3e})\n",), 0


# The indent, in the decompose output, of a coefficient's fields.
_COEFFICIENT = "\n      "


def _cmd_decompose(args, cfg):
    from .ipbenv import omega_decomposition, w0_pairs

    decomposition = omega_decomposition(args.degree, args.direction,
                                        cap=cfg.degree_cap)
    pairs = w0_pairs(args.degree, args.direction)

    # Each coefficient is a readout row, whose terms are in print order
    # as they stand (the tests check it), so neither format sorts them.
    def record(w1, w2):
        p = decomposition[w1, w2]
        return {"w1": w1, "w2": w2, "coefficient": _Rendered(
            _poly_json(p.alphabet, p.terms.items(), _COEFFICIENT))}

    payload = {"degree": args.degree, "direction": args.direction,
               "pairs": (record(w1, w2) for w1, w2 in pairs)}

    def text():
        yield f"degree: {args.degree}  direction: {args.direction}\n"
        for w1, w2 in pairs:
            yield (f"({','.join(w1) or '1'}) x ({','.join(w2) or '1'}): "
                   + " + ".join(f"{c}*({','.join(w)})" for w, c
                                in decomposition[w1, w2].terms.items())
                   + "\n")

    return payload, text, 0


def _cmd_verify(args, cfg):
    from .relgen import decompose_check, generate_all, verify_relation

    point = (args.z1, args.z2)
    check = decompose_check(args.degree, point, max_n=cfg.series_terms,
                            tol=cfg.tolerance, cap=cfg.degree_cap)
    relations = generate_all(args.degree, cfg.degree_cap)
    reports = [verify_relation(r, [point], cfg.series_terms, cfg.tolerance)
               for r in relations]
    rel_ok = all(entry["passed"] for rep in reports for entry in rep)
    payload = {
        "degree": args.degree,
        "point": point,
        "decomposition": check | {"bound": _finite_or_none(check["bound"])},
        "relations_checked": len(relations),
        "relations_ok": rel_ok,
        "passed": bool(check["passed"] and rel_ok),
    }

    def text():
        yield (f"decomposition degree {args.degree}: "
               f"{'pass' if check['passed'] else 'FAIL'} "
               f"(residual {check['residual']:.3e})\n"
               f"relations: {len(relations)} checked, "
               f"{'all pass' if rel_ok else 'FAILURES'}\n")

    return payload, text, 0 if payload["passed"] else 1


# -- argument parsing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _degree(p):
    p.add_argument("--degree", type=int, required=True)


def _direction(p):
    p.add_argument("--direction", choices=("1x2", "2x1"), default="1x2")


def _terms(p):
    p.add_argument("--terms", type=int, dest="series_terms", metavar="TERMS",
                   default=argparse.SUPPRESS, help=(
                       f"cap on the terms of each series (default "
                       f"{DEFAULT_MAX_N}); a series stops earlier once its "
                       "proven tail bound is below its first-order rounding "
                       "estimate, and the bound it reports is the sum of "
                       "the two"))


def _terms_and_tol(p):
    _terms(p)
    p.add_argument("--tol", type=float, dest="tolerance", metavar="TOL",
                   default=argparse.SUPPRESS)


def _numeric_check(p):
    p.add_argument("--z1", type=float, default=0.3)
    p.add_argument("--z2", type=float, default=0.4)
    _terms_and_tol(p)


def _basis_args(p):
    _degree(p)
    p.add_argument("--b0", action="store_true",
                   help="restrict to words not ending in z1/z2")


def _phi_args(p):
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    _direction(p)


def _relations_args(p):
    _degree(p)
    p.add_argument("--verify", action="store_true")
    _numeric_check(p)


def _harmonic_args(p):
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--numeric", help="z1,z2 evaluation point")
    _terms_and_tol(p)


def _eval_args(p):
    p.add_argument("--term", required=True)
    p.add_argument("--z1", type=float, required=True)
    p.add_argument("--z2", type=float, required=True)
    _terms(p)


def _decompose_args(p):
    _degree(p)
    _direction(p)


def _verify_args(p):
    _degree(p)
    _numeric_check(p)


# Each command: its handler, its help line, and the function that adds
# its own arguments (every command also takes --out, last).
_COMMANDS = {
    "basis": (_cmd_basis, "bar-algebra basis at one degree", _basis_args),
    "phi": (_cmd_phi, "integrable representative of a pair", _phi_args),
    "relations": (_cmd_relations, "generalized harmonic relations",
                  _relations_args),
    "harmonic": (_cmd_harmonic, "two-variable harmonic expansion",
                 _harmonic_args),
    "eval": (_cmd_eval, "evaluate one term by series", _eval_args),
    "decompose": (_cmd_decompose, "solution-kernel decomposition",
                  _decompose_args),
    "verify": (_cmd_verify, "decomposition + relation check", _verify_args),
}


def build_parser(command=None):
    """The argument parser, with the subparser of every command, or of
    the one command named."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--degree-cap", type=int, dest="degree_cap",
                        default=argparse.SUPPRESS)

    parser = _Parser(prog="barlog", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, add_args) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[common], help=help_line)
            add_args(p)
            p.add_argument("--out")
    return parser


def run(argv):
    # A run that names its command first builds only that subparser;
    # help, errors and a flag before the command need them all.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
        settings = vars(args)
        cfg = (Config(**load_config(args.config))
               if "config" in settings else Config())
        cfg = cfg._replace(**{key: settings[key] for key in Config._fields
                              if key in settings})
        cfg.validate()
        payload, text, code = _COMMANDS[args.command][0](args, cfg)
        _write(chain(json_chunks(payload), ("\n",)) if cfg.format == "json"
               else text(), args.out)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, BarlogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
