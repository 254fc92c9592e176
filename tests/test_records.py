"""The package's records are namedtuple subclasses that behave as the
frozen dataclasses they replaced: same repr, same hash, read-only
fields, validation on construction, and a pickle round trip."""

import pickle

import pytest

from barlog.cli import Config
from barlog.formspace import WedgeSpace
from barlog.hyperlog import EvalResult, HyperlogTerm
from barlog.ipbenv import Direction
from barlog.relgen import Relation

T = HyperlogTerm(1, (2, 1), ("one", "param"))
U = HyperlogTerm(2, (1,), ("one",))
T_REPR = "HyperlogTerm(main_var=1, index=(2, 1), letters=('one', 'param'))"
U_REPR = "HyperlogTerm(main_var=2, index=(1,), letters=('one',))"

# (record, its repr as a frozen dataclass, the tuple its hash equals:
# its fields, or None for the records holding a dict, which are
# unhashable; a Relation hashes only the fields its equality reads).
RECORDS = [
    (T, T_REPR, tuple),
    (EvalResult(0.5j, 1e-12, 3),
     "EvalResult(value=0.5j, truncation_bound=1e-12, terms_used=3)", tuple),
    # A Direction is built from its theta maps; the other fields are
    # derived from them.
    (Direction("1x2", {"Z1": "z1"}, {"Z2": "z2"}),
     "Direction(name='1x2', theta_left={'Z1': 'z1'}, "
     "theta_right={'Z2': 'z2'}, left_letters=('Z1',), "
     "right_letters=('Z2',), left_alphabet=('z1',), "
     "right_alphabet=('z2',), left_map={'z1': 'z1', 'z11': None, "
     "'z2': None, 'z22': None, 'z12': None}, right_map={'z1': None, "
     "'z11': None, 'z2': 'z2', 'z22': None, 'z12': None})", None),
    (WedgeSpace((("z1", "z2"),), 1, (), (("z1", "z2"),), {}),
     "WedgeSpace(pairs=(('z1', 'z2'),), dimension=1, relations=(), "
     "basis_pairs=(('z1', 'z2'),), coords={})", None),
    (Relation(("Z11",), ("Z22",), 2, (T, U), ((1, U, T),), False),
     f"Relation(w1=('Z11',), w2=('Z22',), degree=2, lhs=({T_REPR}, "
     f"{U_REPR}), rhs=((1, {U_REPR}, {T_REPR}),), trivial=False)",
     lambda r: (r.w1, r.w2, r.lhs)),
    (Config(),
     "Config(degree_cap=6, series_terms=100000, tolerance=1e-08, "
     "format='json')", tuple),
]


def test_records_behave_as_frozen_dataclasses():
    assert hash(T) == hash((1, (2, 1), ("one", "param")))
    for record, text, hash_key in RECORDS:
        assert repr(record) == text
        if hash_key is None:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(hash_key(record))
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
    for fields in [(3, (1,), ("one",)), (1, (1, 2), ("one",)),
                   (1, (0,), ("one",)), (1, (1,), ("two",))]:
        with pytest.raises(ValueError):
            HyperlogTerm(*fields)


def test_a_term_built_from_lists_is_a_key():
    # The fields are stored as tuples, so the term hashes, renders and
    # keys eval_series's cache like the term built from tuples.
    from barlog.hyperlog import eval_series

    listed = HyperlogTerm(1, [2, 1], ["one", "param"])
    assert listed == T and hash(listed) == hash(T)
    assert repr(listed) == T_REPR
    assert listed.render() == T.render() == "L[2,1|one,param]@z1"
    eval_series.cache_clear()
    assert repr(eval_series(listed, 0.3, 0.4, 200)) == repr(
        eval_series(T, 0.3, 0.4, 200))
    info = eval_series.cache_info()
    assert (info.hits, info.misses) == (1, 1)
