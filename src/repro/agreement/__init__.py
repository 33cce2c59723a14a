"""Agreement substrate (§1.4): broadcast emulation over reliable links.

The AL model provides point-to-point links only; the PDS sub-protocols
need (weakly) consistent broadcast.  :mod:`repro.agreement.echo` is the
classical two-step echo broadcast (weak consistency, constant rounds,
works over any :class:`~repro.pds.transport.Transport`).  Nothing in the
PDS or ULS runs over it: it is the contrast for PARTIAL-AGREEMENT, which
reaches at ``n = 2t + 1`` what plain echo needs ``n = 3t + 1`` for.
"""

from repro.agreement.echo import BOTTOM, EchoBroadcast

__all__ = ["EchoBroadcast", "BOTTOM"]
