"""The group's exponentiation engine against plain ``pow`` (hypothesis).

``multi_power`` must equal the product of plain ``pow`` calls, and
``is_member``'s Legendre-symbol test must equal Euler's criterion
``0 < a < p and pow(a, q, p) == 1``, on every input a protocol or an
adversary can hand them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.group import NAMED_GROUP_NAMES, named_group
from tests.helpers import euler_member, pow_product

ENGINE_GROUPS = ["toy64", "toy256"]


def _terms(group):
    """Lists of (base, exponent) drawing bases from a small pool, so
    repeated bases are common, and exponents from 0, the full range and
    beyond ``q`` (negative included)."""
    p, q = group.p, group.q
    bases = st.lists(
        st.one_of(st.integers(1, p - 1), st.sampled_from([1, p - 1, p, p + 1, group.g])),
        min_size=1, max_size=4,
    )
    exponents = st.one_of(
        st.just(0), st.sampled_from([1, q - 1, q, q + 1, 2 * q]),
        st.integers(0, q - 1), st.integers(-3 * q, 3 * q),
    )
    return bases.flatmap(
        lambda pool: st.lists(st.tuples(st.sampled_from(pool), exponents), max_size=12)
    )


@pytest.mark.parametrize("name", ENGINE_GROUPS)
def test_multi_power_matches_pow_product(name):
    group = named_group(name)

    @given(_terms(group))
    @settings(max_examples=150, deadline=None)
    def check(terms):
        assert group.multi_power(terms) == pow_product(group, terms)

    check()


@pytest.mark.parametrize("name", ENGINE_GROUPS)
def test_multi_power_edge_inputs(name):
    group = named_group(name)
    p, q, g = group.p, group.q, group.g
    y = pow(g, 12345, p)
    for terms in (
        [],                                   # empty product
        [(y, 7)],                             # single term
        [(y, 0), (g, 0)],                     # all exponents zero
        [(y, q), (g, 2 * q)],                 # exponents that reduce to zero
        [(y, q + 5), (g, -1)],                # exponents >= q and negative
        [(y, 3), (y, 4), (y, q - 7)],         # one base, repeated
        [(0, 5), (y, 1)],                     # the zero base
        [(p + 3, 9), (-y, q - 1)],            # bases outside [0, p)
    ):
        assert group.multi_power(terms) == pow_product(group, terms), terms
    # generators are accepted, not only lists
    assert group.multi_power((b, e) for b, e in [(y, 3), (g, 5)]) == pow_product(
        group, [(y, 3), (g, 5)]
    )


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_is_member_matches_euler(name):
    group = named_group(name)
    p = group.p

    @given(st.integers(-2 * p, 2 * p))
    @settings(max_examples=60, deadline=None)
    def check(a):
        assert group.is_member(a) == euler_member(group, a)

    check()
    for a in (0, 1, 2, 4, p - 1, p, p + 1, -1, -4, group.g, pow(group.g, 77, p)):
        assert group.is_member(a) == euler_member(group, a), a
