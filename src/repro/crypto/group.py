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
:meth:`SchnorrGroup.fixed_power` walk a :class:`FixedBaseWindow` by the
exponent's bytes (``g``'s table, one row per byte, is built with the
group; a key's, one row per nibble, with its first use), and
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

__all__ = [
    "FixedBaseWindow",
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

#: digit width of ``g``'s table: one row of 256 powers per exponent byte
_G_WIDTH = 8

#: digit width of a key's window: two rows of 16 per exponent byte.  An
#: 8-bit table per key would take 8,192 products to build on toy256 (8×
#: a 4-bit one's) and hold ~0.48 MB more, for each of up to 2n + 1 keys
#: in force.
_KEY_WIDTH = 4

#: an exponent byte's low and high nibble, for the 4-bit walk
_LOW_NIBBLES = bytes(b & 15 for b in range(256))
_HIGH_NIBBLES = bytes(b >> 4 for b in range(256))


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
# instances), so clear_all_caches() can drop their keys' windows
_GROUP_REGISTRY: "weakref.WeakValueDictionary[int, SchnorrGroup]" = (
    weakref.WeakValueDictionary()
)


@register_cache_clearer
def _clear_group_caches() -> None:
    # g's table is a parameter of its group, not a memo: it stays
    for group in list(_GROUP_REGISTRY.values()):
        group._base_windows.clear()
        group._member_cache.clear()


class FixedBaseWindow:
    """Precomputed powers of one fixed base modulo ``modulus``, walked by
    the bytes of the exponent (fixed-base windowing, Brickell et al.;
    HAC 14.109).

    Row ``i`` holds ``base^(d · 2^(w·i))`` for every ``w``-bit digit
    ``d``, over as many rows as ``order`` has bytes times ``8/w``.  A walk
    multiplies in one entry per nonzero digit of ``exponent % order``,
    read from its little-endian bytes: each byte is a digit for ``w = 8``
    (one row of 256 per byte, the shape of ``g``'s table); for ``w = 4``
    the digits are every byte's low nibble, then every byte's high nibble
    (two rows of 16 per byte, stored in that order: a key's window).  So
    a ``b``-bit order costs at most ``⌈b/8⌉`` or ``2⌈b/8⌉`` products and
    no big-int shift or mask, against ``~1.5·b`` inside ``pow``; building
    costs one product per entry, so a table pays only for a base raised
    many times (costs and sizes: ``docs/PROTOCOLS.md`` §12).  A row past
    the order's top bit only ever reads digit 0.

    The value is exactly ``pow(base, exponent % order, modulus)``.

    Args:
        base: the fixed base (reduced mod ``modulus``).
        modulus: the group modulus ``p``.
        order: the exponent order ``q`` (exponents are reduced mod ``q``).
        width: the digit width ``w``: 8 (``g``'s table) or 4 (a key's
            window); any other raises ``ValueError``.
    """

    __slots__ = ("base", "modulus", "order", "width", "_nbytes", "_rows")

    def __init__(self, base: int, modulus: int, order: int, width: int) -> None:
        if width not in (_KEY_WIDTH, _G_WIDTH):
            raise ValueError(f"width must be {_KEY_WIDTH} or {_G_WIDTH}, not {width!r}")
        if modulus < 2 or order < 1:
            raise ValueError("modulus and order must be positive")
        base %= modulus
        self.base = base
        self.modulus = modulus
        self.order = order
        self.width = width
        self._nbytes = (order.bit_length() + 7) // 8
        radix = 1 << width
        rows: list[list[int]] = []
        step = base  # base^(radix^i), advanced per row
        for _ in range(self._nbytes * 8 // width):
            row = [1] * radix
            acc = 1
            for d in range(1, radix):
                acc = acc * step % modulus
                row[d] = acc
            rows.append(row)
            step = row[-1] * step % modulus
        self._rows = rows if width == _G_WIDTH else rows[0::2] + rows[1::2]

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` (exponent reduced mod order)."""
        digits = (exponent % self.order).to_bytes(self._nbytes, "little")
        if self.width == _KEY_WIDTH:
            digits = digits.translate(_LOW_NIBBLES) + digits.translate(_HIGH_NIBBLES)
        acc = 1
        modulus = self.modulus
        for digit, row in zip(digits, self._rows):
            if digit:
                acc = acc * row[digit] % modulus
        return acc

    def __repr__(self) -> str:
        return (
            f"FixedBaseWindow(bits={self.modulus.bit_length()}, "
            f"width={self.width}, rows={len(self._rows)})"
        )


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
        # g's table is a parameter of the group: built here, once, and
        # kept for its life; a key in force (v_cert, the local keys, the
        # key images) gets a window at its first use, dropped with the key
        self._g_table = FixedBaseWindow(params.g, params.p, params.q, _G_WIDTH)
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
        """``g ** exponent mod p``, through ``g``'s table: one row of 256
        powers per exponent byte, built with the group and kept through
        :func:`~repro.perf.registry.clear_all_caches`."""
        return self._g_table.pow(exponent)

    def fixed_power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p`` for a *long-lived* base.

        Builds (and keeps) a window of 4-bit digits for ``base``, two rows
        of 16 powers per exponent byte — meant for keys in force, each
        raised many times over its lifetime: the PDS key ``v_cert``, the
        local keys of VER-CERT and the key images of partial signatures.
        The rotation hooks drop a superseded key's window
        (:meth:`drop_window`), and so does ``clear_all_caches``; the
        pool's FIFO bound is only a leak guard above every live set.
        """
        window = self._base_windows.get(base)
        if window is None:
            while len(self._base_windows) >= _MAX_BASE_WINDOWS:
                self._base_windows.pop(next(iter(self._base_windows)))
            window = self._base_windows[base] = FixedBaseWindow(
                base, self.p, self.q, _KEY_WIDTH
            )
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

    Available names: ``toy64``, ``toy160``, ``toy256``, ``toy512`` and
    ``modp1024`` (see ``NAMED_GROUP_NAMES``).  Any other safe-prime group
    is ``SchnorrGroup(GroupParams(p, q, g))``.  Parameters are validated on
    first use and the constructed group is cached.
    """
    try:
        params = _NAMED_PARAMS[name]
    except KeyError:
        raise KeyError(f"unknown group {name!r}; choose from {NAMED_GROUP_NAMES}") from None
    return SchnorrGroup(params)
