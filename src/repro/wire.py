"""The wire format: every body a handler accepts, written down once.

In the UL model the adversary owns every link (§2.2), and for the
current unit it also holds the keys of every node it has broken into, so
a body that passes VER-CERT can still be anything at all (§4.2).  Each
handler checks a body once, where it takes the body off its transport or
inbox, against its channel's table here, drops what does not fit, and
then unpacks without ``try``.  A table maps each body kind to its field
types (:func:`well_formed`); the certified 8-tuple and Λ's ``(channel,
payload)`` have no kind and are plain field types (:func:`fits`).  A
table states the types its handler needs in order to unpack; ``object``
marks a field the handler compares or checks itself.  Inner structure is
checked where it is read: commitments, ack items and revealed points by
the dealing round (:mod:`repro.pds.dealing`), signatures by VER-CERT.
DISPERSE's own framing is :mod:`repro.core.disperse`'s alone.

The refresh wire format is a parameter of each ULS instance,
``wire="paper" | "aggregated"`` (:data:`WIRES`), and AUTH-SEND's alone
(:class:`~repro.core.auth_send.AuthSendTransport`): the services above
it send the paper's bodies on both.  The paper wire certifies each body
on its own, to its destination, when it is sent.  The aggregated wire
certifies one :data:`PACK` per node, destination and round: every body
the node sent that destination in that round, in send order, with
:data:`BROADCAST` a destination of its own (``docs/PROTOCOLS.md`` §12).
Receivers on both wires read a certified body through :func:`unpack`, so
a bare body is a pack of one.  A format decides how bodies are packed and
addressed, never who takes part: on both, every intact node helps every
share recovery.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "fits", "well_formed", "unpack", "WIRES", "BROADCAST", "aggregated_wire", "CERTIFIED",
    "PACK", "PA1", "APP", "LAMBDA", "SIGNER", "REFRESH", "PA3", "CERT", "NEWKEY",
    "SESSION", "DKG", "NAIVE_KEY", "NAIVE_REKEY", "NAIVE_APP",
]


def fits(values: Any, types: tuple) -> bool:
    """Whether ``values`` is a tuple of instances of ``types``, one each."""
    return (
        isinstance(values, tuple) and len(values) == len(types)
        and all(map(isinstance, values, types))
    )


def well_formed(body: Any, shapes: Mapping[str, tuple]) -> bool:
    """Whether ``body`` is ``(kind, *fields)`` with ``kind`` in ``shapes``
    and the fields fitting (:func:`fits`) its types there."""
    return (
        isinstance(body, tuple) and len(body) > 0 and isinstance(body[0], str)
        and body[0] in shapes and fits(body[1:], shapes[body[0]])
    )


def unpack(body: Any, shapes: Mapping[str, tuple]) -> tuple:
    """The members of ``body``, in send order, if it is a pack of
    ``shapes`` (:data:`PACK` or :data:`PA3`), else ``(body,)``.  One level
    deep: a pack inside a pack is one member, which no reader takes."""
    return body[1] if well_formed(body, shapes) else (body,)


#: the refresh wire formats a protocol instance can speak
WIRES = ("paper", "aggregated")

#: The destination "every node": CERTIFY's sentinel for a message any
#: receiver accepts, and DISPERSE's for a send every node but the sender
#: receives.  Real node ids are non-negative, so it never names a node.
BROADCAST = -1


def aggregated_wire(wire: str) -> bool:
    """Whether ``wire`` names the aggregated format (``ValueError`` for
    anything but one of :data:`WIRES`)."""
    if wire not in WIRES:
        raise ValueError(f"wire must be one of {WIRES}, got {wire!r}")
    return wire == "aggregated"


#: the certified message ``⟨m, i, j, u, w, σ, v, cert⟩`` of Fig. 3
CERTIFIED = (object, int, int, int, int, object, object, object)

# -- AUTH-SEND bodies (DISPERSE tag "auth"), one table per reader -----------

#: the aggregated wire's certified body: the bodies one node sent one
#: destination in one round, in send order
PACK = {"pack": (tuple,)}

#: PARTIAL-AGREEMENT step 1: session id, announced value
PA1 = {"pa1": (object, object)}
#: ULS application traffic: the message
APP = {"app": (object,)}
#: Λ's application message inside ``app``: π's channel, payload
LAMBDA = (object, object)

#: the threshold signer (pds/threshold_schnorr)
SIGNER = {
    "ts-deal": (str, bytes, tuple, object),  # sid, m, elements, sub-share
    "ts-ack": (str, tuple),  # sid, ack list
    "ts-reveal": (str, tuple, tuple),  # sid, points, elements
    "ts-partial": (str, int, tuple, int),  # sid, share index, qual, value
}

#: the share refresh (pds/refresh)
REFRESH = {
    "rf-sync": (int, tuple),  # unit, key commitment
    "rf-zdeal": (int, tuple, object),  # unit, elements, sub-share
    "rf-zack": (int, tuple),  # unit, ack list
    "rf-need": (int,),  # unit
    "rf-blind": (int, int, tuple, int),  # unit, requester, elements, sub-share
    "rf-zreveal": (int, tuple, tuple),  # unit, points, elements
    "rf-help": (int, int, int, tuple, tuple),  # unit, x, value, blind set, elements
}

# -- raw DISPERSE bodies ----------------------------------------------------

#: PARTIAL-AGREEMENT step 3 (tag "pa3"): a pack of certified messages,
#: one per session and receiver on the paper wire, one per node and round
#: to BROADCAST of the distinct round packs on the aggregated wire
PA3 = {"pa3b": (tuple,)}
#: ULS Part (I) step 5 (tag "cert"): assertion bytes, certificate
CERT = {"cert-deliver": (object, object)}

# -- raw links --------------------------------------------------------------

#: ULS Part (I) step 2, in the clear: unit, key repr
NEWKEY = {"newkey": (object, tuple)}
#: the session layer's MAC'd message: unit, round, body, tag
SESSION = {"mac": (object, object, object, object)}
#: the distributed UGen (pds/dkg), over reliable set-up links
DKG = {"deal": (tuple, object), "key": (tuple,)}
#: the §1.3 strawman (core/naive): key announcement, rekey, app message
NAIVE_KEY = {"key": (object,)}
NAIVE_REKEY = {"rekey": (object, object, object)}  # unit, key, signature
NAIVE_APP = {"msg": (object, object, object, object)}  # unit, round, message, signature
