"""Schnorr groups: prime-order subgroups of ``Z_p*`` for safe primes ``p``.

A :class:`SchnorrGroup` is the algebraic home of the centralized Schnorr
signature scheme (:mod:`repro.crypto.schnorr`), Feldman VSS commitments
(:mod:`repro.crypto.feldman`) and the threshold Schnorr PDS
(:mod:`repro.pds.threshold_schnorr`).

For reproducible fast simulations, :func:`named_group` exposes precomputed
safe-prime parameters at several sizes.  ``toy64`` is the default for unit
tests (fast, structurally identical to the large groups); ``toy512`` and
``modp1024`` are realistic sizes.  Fresh parameters of any size can be
generated with :meth:`SchnorrGroup.generate`.

Every exponentiation of the package goes through this one engine
(``docs/PROTOCOLS.md`` §12): :meth:`SchnorrGroup.base_power` and
:meth:`SchnorrGroup.fixed_power` walk fixed-base windows, and
:meth:`SchnorrGroup.is_member` decides membership by the Legendre
symbol.  :meth:`SchnorrGroup.multi_power`, an interleaved-window
(Straus) multi-exponentiation, has no caller in the protocols; the
benchmark's tracer still patches it by name.  Each computes exactly the
value of the plain ``pow`` expression its docstring names.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from repro.crypto.field import PrimeField
from repro.crypto.numbers import is_probable_prime, mod_inverse, random_safe_prime
from repro.perf.registry import register_cache_clearer
from repro.perf.fixed_base import FixedBaseWindow

__all__ = [
    "GroupParams",
    "SchnorrGroup",
    "named_group",
    "NAMED_GROUP_NAMES",
]

#: leak guard on per-group fixed-base windows: a window lives as long as
#: its key, and the keys in force number at most 2n + 1 (n local keys,
#: n key images and v_cert; n = 37 needs 75)
_MAX_BASE_WINDOWS = 128

#: bound on per-group memoized membership checks
_MAX_MEMBER_CACHE = 8192


@dataclass(frozen=True)
class GroupParams:
    """Raw parameters of a Schnorr group: modulus ``p = 2q + 1``, subgroup
    order ``q``, and a generator ``g`` of the order-``q`` subgroup."""

    p: int
    q: int
    g: int


# Precomputed safe-prime groups (generated with repro.crypto.numbers using
# the recorded seeds; regenerate with SchnorrGroup.generate).
_NAMED_PARAMS: dict[str, GroupParams] = {
    "toy64": GroupParams(
        p=10561829830609104407,
        q=5280914915304552203,
        g=9602570437518168674,
    ),  # generated seed=20260704
    "toy160": GroupParams(
        p=997855515580186396229697615310159920406160229659,
        q=498927757790093198114848807655079960203080114829,
        g=40598130892338324350451060130031123639020733021,
    ),  # generated seed=20260704
    "toy256": GroupParams(
        p=67821671967046951812557102031991670226620564348077837361628384566976813466943,
        q=33910835983523475906278551015995835113310282174038918680814192283488406733471,
        g=1850363098878163849516495635244569225836707380982770421430618418451472981723,
    ),  # generated seed=20260704
    "toy512": GroupParams(
        p=7224477589836730553154706986369398157297831408571460562969841994707833055171720153046343778318831080327224059409896887841605627399437448331101686846698343,
        q=3612238794918365276577353493184699078648915704285730281484920997353916527585860076523171889159415540163612029704948443920802813699718724165550843423349171,
        g=3861457192457190027768709366239781566834679578181151228805404375812153503896915365145922142150784532370305624799428037617088535660399526567890696987942938,
    ),  # generated seed=20260704
    "modp1024": GroupParams(
        p=102292161455402110795990114425354183015494145275678033294089408026257351076129818420238765831867365949681431539556667064807255964689911503222465506608386343717085643604731455043574735084843874347060142964840943459408481536927182861856820961443771763238767770199395850343670860883557290967403306168112662460087,
        q=51146080727701055397995057212677091507747072637839016647044704013128675538064909210119382915933682974840715769778333532403627982344955751611232753304193171858542821802365727521787367542421937173530071482420471729704240768463591430928410480721885881619383885099697925171835430441778645483701653084056331230043,
        g=43338353338829160309271392124088032175802578010888055724324843417461540773382510262568244032894896631063040234741223714503596379318858608370721183212445194097688425957439580663690250576823322582862780984876228399207528335266912907191921301553886997475029337569545509147976099107959202167877405949530252616906,
    ),  # generated seed=42
}

NAMED_GROUP_NAMES = tuple(sorted(_NAMED_PARAMS))

# live groups (keyed by id: equality-deduping would hide duplicate
# instances), so clear_all_caches() can drop their precomputed windows
_GROUP_REGISTRY: "weakref.WeakValueDictionary[int, SchnorrGroup]" = (
    weakref.WeakValueDictionary()
)


@register_cache_clearer
def _clear_group_caches() -> None:
    for group in list(_GROUP_REGISTRY.values()):
        group._g_window = None
        group._base_windows.clear()
        group._member_cache.clear()


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a / n)`` for odd ``n > 0`` (binary algorithm;
    for a prime ``n`` it is the Legendre symbol)."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        if zeros:
            a >>= zeros
            if zeros & 1 and n & 7 in (3, 5):
                result = -result
        if a & n & 2:  # both are 3 mod 4: quadratic reciprocity flips
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _straus_width(bits: int) -> int:
    """Window width ``w`` minimizing one term's cost in
    :meth:`SchnorrGroup.multi_power`: ``2^w`` products to build its table
    plus ``bits/w`` to multiply its digits in (the ``bits`` squarings are
    shared by all terms, whatever ``w``)."""
    width = 1
    while (2 << width) + bits / (width + 1) < (1 << width) + bits / width:
        width += 1
    return width


class SchnorrGroup:
    """The order-``q`` subgroup of ``Z_p*`` for a safe prime ``p = 2q + 1``.

    Group elements are ints in ``[1, p)``; scalars live in the
    :class:`~repro.crypto.field.PrimeField` ``Z_q`` exposed as
    :attr:`scalar_field`.
    """

    def __init__(self, params: GroupParams) -> None:
        # a safe prime is what makes the order-q subgroup exactly the
        # quadratic residues, which is_member's Legendre test relies on
        if params.p != 2 * params.q + 1:
            raise ValueError("p must equal 2q + 1")
        if not is_probable_prime(params.p) or not is_probable_prime(params.q):
            raise ValueError("p and q must both be prime")
        if not (1 < params.g < params.p) or pow(params.g, params.q, params.p) != 1:
            raise ValueError("g must generate the order-q subgroup")
        if params.g == 1:
            raise ValueError("g must not be the identity")
        self.params = params
        self.p = params.p
        self.q = params.q
        self.g = params.g
        self.scalar_field = PrimeField(params.q)
        self._straus_width = _straus_width(params.q.bit_length())
        # fixed-base precomputation (repro.perf): a window for g, built
        # lazily, plus one window per long-lived base in force (v_cert,
        # the local keys, the key images), dropped with its key
        self._g_window: FixedBaseWindow | None = None
        self._base_windows: dict[int, FixedBaseWindow] = {}
        self._member_cache: dict[int, bool] = {}
        _GROUP_REGISTRY[id(self)] = self

    # -- construction ---------------------------------------------------

    @classmethod
    def generate(cls, bits: int, rng: random.Random) -> "SchnorrGroup":
        """Generate fresh parameters with a ``bits``-bit safe prime."""
        p, q = random_safe_prime(bits, rng)
        while True:
            h = rng.randrange(2, p - 1)
            g = pow(h, 2, p)
            if g != 1:
                break
        return cls(GroupParams(p=p, q=q, g=g))

    # -- group operations -------------------------------------------------

    @property
    def identity(self) -> int:
        return 1

    def power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p`` (exponent reduced mod q)."""
        return pow(base, exponent % self.q, self.p)

    def base_power(self, exponent: int) -> int:
        """``g ** exponent mod p``, through the fixed-base window of ``g``."""
        window = self._g_window
        if window is None:
            window = self._g_window = FixedBaseWindow(self.g, self.p, self.q)
        return window.pow(exponent)

    def fixed_power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p`` for a *long-lived* base.

        Builds (and keeps) a fixed-base window for ``base`` — meant for
        keys in force, each raised many times over its lifetime: the PDS
        key ``v_cert``, the local keys of VER-CERT and the key images of
        partial signatures.  The rotation hooks drop a superseded key's
        window (:meth:`drop_window`); the pool's FIFO bound is only a leak
        guard above every live set.
        """
        window = self._base_windows.get(base)
        if window is None:
            while len(self._base_windows) >= _MAX_BASE_WINDOWS:
                self._base_windows.pop(next(iter(self._base_windows)))
            window = self._base_windows[base] = FixedBaseWindow(base, self.p, self.q)
        return window.pow(exponent)

    def drop_window(self, base: int) -> None:
        """Forget the fixed-base window of a key no longer in force."""
        self._base_windows.pop(base, None)

    def multiply(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def invert(self, a: int) -> int:
        return mod_inverse(a, self.p)

    def divide(self, a: int, b: int) -> int:
        return (a * self.invert(b)) % self.p

    def is_member(self, a: int) -> bool:
        """Check membership of the order-``q`` subgroup, i.e. Euler's
        criterion ``0 < a < p and pow(a, q, p) == 1``.

        For the safe prime ``p = 2q + 1`` the order-``q`` subgroup is
        exactly the quadratic residues mod ``p``, so the Legendre symbol
        decides it without an exponentiation.  A pure predicate of the
        element, so outcomes are memoized — every signature check
        tests its key, and the keys are few."""
        cached = self._member_cache.get(a)
        if cached is None:
            cached = 0 < a < self.p and _jacobi(a, self.p) == 1
            if len(self._member_cache) >= _MAX_MEMBER_CACHE:
                self._member_cache.clear()
            self._member_cache[a] = cached
        return cached

    def random_scalar(self, rng: random.Random) -> int:
        """Uniform nonzero scalar (suitable as a secret key or nonce)."""
        return rng.randrange(1, self.q)

    def multi_power(self, bases_and_exponents: Iterable[tuple[int, int]]) -> int:
        """``Π pow(base_i, exp_i % q, p)`` in one interleaved-window
        (Straus) multi-exponentiation.  No protocol path calls it.

        Each base gets a table of its powers ``0 .. 2^w - 1``; the
        exponents are cut into ``w``-bit digits, and one shared chain of
        squarings walks the digit positions from the top, multiplying in
        every term's table entry for its digit.  ``w`` follows from the
        exponent size (:func:`_straus_width`); a lone term goes to
        ``pow``, which a table cannot beat without reuse.
        """
        p, q = self.p, self.q
        terms = [
            (base, reduced)
            for base, exponent in bases_and_exponents
            if (reduced := exponent % q)
        ]
        if len(terms) < 2:
            return pow(terms[0][0], terms[0][1], p) if terms else 1
        width = self._straus_width
        mask = (1 << width) - 1
        # columns[i]: the table entries multiplied in at digit position i
        columns: list[list[int]] = []
        for base, exponent in terms:
            base %= p
            table = [1, base]
            for _ in range(mask - 1):
                table.append(table[-1] * base % p)
            position = 0
            while exponent:
                digit = exponent & mask
                if digit:
                    while len(columns) <= position:
                        columns.append([])
                    columns[position].append(table[digit])
                exponent >>= width
                position += 1
        acc = 1
        step = 1 << width
        for column in reversed(columns):
            acc = pow(acc, step, p)
            for entry in column:
                acc = acc * entry % p
        return acc

    # -- equality / descriptor --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchnorrGroup) and self.params == other.params

    def __hash__(self) -> int:
        return hash(self.params)

    def __repr__(self) -> str:
        return f"SchnorrGroup(bits={self.p.bit_length()})"


@lru_cache(maxsize=None)
def named_group(name: str = "toy64") -> SchnorrGroup:
    """Return one of the precomputed groups by name.

    Available names: ``toy64``, ``toy160``, ``toy256``, ``toy512`` (see
    ``NAMED_GROUP_NAMES``).  Parameters are validated on first use and the
    constructed group is cached.
    """
    try:
        params = _NAMED_PARAMS[name]
    except KeyError:
        raise KeyError(f"unknown group {name!r}; choose from {NAMED_GROUP_NAMES}") from None
    return SchnorrGroup(params)
