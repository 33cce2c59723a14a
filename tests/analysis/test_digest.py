"""The streamed transcript digests hash exactly ``repr(stable_form(...))``.

``stable_form`` is the reference definition of the canonical form; the
digests render it piece by piece (with memoized shared containers and
dict items streamed in key order) and must produce the same bytes.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.digest import _CanonicalHash, stable_form
from repro.sim.messages import Envelope


class _Repr:
    """A value whose repr is chosen freely (to make dict keys whose
    renderings are prefixes of each other)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _reference(value) -> str:
    return hashlib.sha256(repr(stable_form(value)).encode("utf-8")).hexdigest()


def _streamed(value) -> str:
    canonical = _CanonicalHash()
    canonical.stream(value)
    return canonical.hexdigest()


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                     st.binary(max_size=6))
_hashables = st.recursive(_scalars, lambda inner: st.tuples(inner, inner), max_leaves=4)
_envelopes = st.builds(Envelope, st.integers(0, 4), st.integers(0, 4), st.text(max_size=3),
                       _hashables, st.integers(0, 9))
_values = st.recursive(
    st.one_of(_scalars, _envelopes),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(_hashables, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_streamed_rendering_matches_stable_form(value):
    assert _streamed(value) == _reference(value)


def test_shared_containers_and_one_tuples():
    body = ("body", (1,), frozenset({2, 3}))
    envelopes = [Envelope(0, j, "c", ("fwd", body), 1) for j in range(1, 4)]
    value = (envelopes, {j: [e for e in envelopes if e.receiver == j] for j in range(4)},
             (body,), ())
    assert _streamed(value) == _reference(value)


def test_dict_with_prefix_keys_falls_back_to_full_sort():
    # by keys alone "(1, " sorts first; by the whole item "(1, 2, 'b')"
    # sorts before "(1, 9)"
    value = {_Repr("1"): 9, _Repr("1, 2"): "b", _Repr("0"): ["c"]}
    assert _streamed(value) == _reference(value)
