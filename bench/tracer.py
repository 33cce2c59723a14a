"""Outside-in layer trace of one benchmark episode.

The traced run wraps the package's layer entry points for the measured
region of one episode, from the benchmark's own files — the program itself
is not changed:

* a *span* wrapper times every call and keeps a stack, so a layer's self
  time is its spans' time minus the time of the spans they enclose, and
  the self times of all spans add up to the root span (``Runner.run``);
* a *counter* wrapper only counts, for crypto leaves, where timing each
  call would cost more than the call.

Module functions are patched under every name any ``repro.*`` module holds
them by (``from x import f`` copies the reference, and package
``__init__`` re-exports can shadow a submodule of the same name, so
modules are found through ``sys.modules``); methods are patched on the
class that defines them.  Everything is restored when the region ends.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

ALL = ("refresh-n13-sparse", "sign-n7", "authlink-n7", "chaos-n7")

Hook = Callable[[Any, tuple, dict], None]


class Tracer:
    """Spans, counts and the patches that produce them.

    ``setup(tracer)`` applies the patches; :meth:`install` runs it and
    :meth:`uninstall` restores every patched attribute.
    """

    def __init__(self, workload: str, setup: Callable[["Tracer"], None],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.workload = workload
        self.clock = clock
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: (parent span, child span) -> inclusive seconds of the child
        self.edges: dict[tuple[str, str], float] = {}
        self.counts: dict[str, float] = {}
        #: wrapper name -> workloads on which it must fire
        self.expected: dict[str, tuple[str, ...]] = {}
        #: called by :meth:`uninstall` before the patches are undone
        self.at_uninstall: list[Callable[[], None]] = []
        self._setup = setup
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Hook | None = None,
             expect: tuple[str, ...] = ()) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        if expect:
            self.expected[name] = expect
        stack = self._stack
        edges = self.edges
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += elapsed
                edges[parent, name] = edges.get((parent, name), 0.0) + elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, after: Hook | None = None,
                expect: tuple[str, ...] = ()) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)
        if expect:
            self.expected[name] = expect

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def patch_function(self, module: str, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` under every alias in ``repro.*`` modules."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls: type, attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replace a method on the class that defines it."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        self._setup(self)

    def uninstall(self) -> None:
        for hook in self.at_uninstall:
            hook()
        self.at_uninstall = []
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def silent(self) -> list[str]:
        """Wrappers expected to fire on this workload that never did."""
        return sorted(
            name for name, workloads in self.expected.items()
            if self.workload in workloads
            and not (self.spans[name][0] if name in self.spans else self.counts.get(name))
        )

    def export(self, wall_s: float) -> dict[str, Any]:
        """Everything the per-layer metrics are computed from, as JSON."""
        return {"tree": self.tree(), "counts": self.counts, "silent": self.silent(),
                "coverage": coverage(self.spans, wall_s)}

    def tree(self) -> dict[str, dict[str, Any]]:
        """Per span: calls, inclusive and self seconds, and the parent
        spans its time was spent under."""
        return {
            name: {
                "calls": calls,
                "inclusive_s": inclusive,
                "self_s": own,
                "parents": {
                    parent or "-": seconds
                    for (parent, child), seconds in sorted(self.edges.items())
                    if child == name
                },
            }
            for name, (calls, inclusive, own) in sorted(self.spans.items())
        }


# -- the layer table -----------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """A wrapped call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _send_kind(body: Any) -> str:
    """The sub-protocol an AUTH-SEND body belongs to, by its tag."""
    tag = body[0] if isinstance(body, tuple) and body else None
    if tag == "app":
        return "app"
    if isinstance(tag, str):
        for prefix in ("pa", "ts", "rf"):
            if tag.startswith(prefix):
                return prefix
    return "other"


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core.auth_send import AuthSendTransport
    from repro.core.authenticator import AuthenticatedProgram
    from repro.core.disperse import DisperseService
    from repro.core.partial_agreement import PartialAgreementService
    from repro.core.uls import UlsCore, UlsProgram
    from repro.crypto.group import SchnorrGroup
    from repro.crypto.schnorr import SchnorrScheme
    from repro.faults import FaultInjectionAdversary
    from repro.pds.refresh import RefreshService
    from repro.pds.threshold_schnorr import ThresholdSigner
    from repro.perf.cache import verification_cache
    from repro.perf.share_image import share_image_cache
    from repro.sim.adversary_api import Adversary
    from repro.sim.runner import Runner

    uls_workloads = ("refresh-n13-sparse", "sign-n7", "chaos-n7")
    span, counter, add = tracer.span, tracer.counter, tracer.add

    def spans(cls, attr, name, after=None, expect=ALL):
        tracer.patch_method(cls, attr, lambda fn: span(name, fn, after, expect))

    def counts(cls, attr, name, after=None, expect=ALL):
        tracer.patch_method(cls, attr, lambda fn: counter(name, fn, after, expect))

    # runner stages: the root span, program steps and the adversary (the
    # fault injector on chaos-n7, the passive base elsewhere)
    spans(Runner, "run", "runner.run")
    for attr in ("on_round", "deliver"):
        spans(Adversary, attr, "runner.adversary",
              expect=("refresh-n13-sparse", "sign-n7", "authlink-n7"))
        spans(FaultInjectionAdversary, attr, "faults.inject", expect=("chaos-n7",))
    spans(UlsProgram, "step", "uls.step", expect=uls_workloads)
    spans(AuthenticatedProgram, "step", "authenticator.step", expect=("authlink-n7",))

    # protocol layers
    spans(UlsCore, "on_round", "uls.on_round")
    spans(DisperseService, "on_round", "disperse.on_round")

    def disperse_send(fn):
        timed = span("disperse.send", fn, expect=ALL)

        def wrapper(self, ctx, *args, **kwargs):
            before = len(ctx.outbox)
            try:
                return timed(self, ctx, *args, **kwargs)
            finally:
                add("disperse.copies", len(ctx.outbox) - before)

        return wrapper

    tracer.patch_method(DisperseService, "send", disperse_send)
    spans(AuthSendTransport, "begin_round", "auth_send.begin_round")
    counts(AuthSendTransport, "send", "auth_send.send",
           after=lambda _r, args, kwargs: add(
               "auth_send.sends." + _send_kind(_arg(args, kwargs, 3, "body"))))
    tracer.expected["auth_send.sends.app"] = ("authlink-n7",)
    spans(PartialAgreementService, "on_round", "partial_agreement.on_round")
    counts(PartialAgreementService, "start", "partial_agreement.start")
    spans(ThresholdSigner, "on_round", "threshold_schnorr.on_round")
    spans(ThresholdSigner, "request", "threshold_schnorr.request")
    counts(ThresholdSigner, "completed", "threshold_schnorr.completed_calls",
           after=lambda result, _a, _k: add("threshold_schnorr.completed", len(result)))
    counts(ThresholdSigner, "failed", "threshold_schnorr.failed_calls",
           after=lambda result, _a, _k: add("threshold_schnorr.failed", len(result)),
           expect=uls_workloads)
    spans(RefreshService, "on_round", "refresh.on_round")
    spans(RefreshService, "begin", "refresh.begin")
    counts(RefreshService, "events", "refresh.events_calls",
           after=lambda result, _a, _k: add(
               "refresh.failed", sum(1 for event in result if event[0] == "failed")))

    # crypto: CERTIFY / VER-CERT, Feldman, Schnorr, group, hashing
    tracer.patch_function("repro.core.certify", "certify",
                          lambda fn: span("certify.certify", fn, expect=ALL))

    def ver_cert_many_done(result, _args, _kwargs):
        add("certify.ver_cert_many_items", len(result))
        add("certify.ver_cert_many_accepted", sum(1 for msg in result if msg is not None))

    tracer.patch_function("repro.core.certify", "ver_cert_many",
                          lambda fn: span("certify.ver_cert_many", fn,
                                          ver_cert_many_done, expect=ALL))
    tracer.patch_function("repro.crypto.feldman", "verify_shares_batch",
                          lambda fn: span("feldman.verify_shares_batch", fn,
                                          lambda result, _a, _k: add(
                                              "feldman.batch_items", len(result)),
                                          expect=ALL))
    spans(SchnorrScheme, "sign", "schnorr.sign")
    spans(SchnorrScheme, "verify", "schnorr.verify", expect=("sign-n7", "authlink-n7"))

    def batch_done(result, args, kwargs):
        add("schnorr.batch_items", len(_arg(args, kwargs, 1, "items")))
        if not result:
            add("schnorr.batch_fallbacks")

    spans(SchnorrScheme, "batch_verify", "schnorr.batch_verify", batch_done)
    for attr in ("power", "base_power", "fixed_power"):
        counts(SchnorrGroup, attr, f"group.{attr}", expect=("sign-n7", "refresh-n13-sparse"))
    # reached only through a Feldman batch of two or more shares
    counts(SchnorrGroup, "multi_power", "group.multi_power", expect=())
    for attr in ("encode_for_hash", "tagged_hash"):
        tracer.patch_function(
            "repro.crypto.hashing", attr,
            lambda fn, attr=attr: counter(f"hashing.{attr}", fn,
                                          expect=("sign-n7", "refresh-n13-sparse")))

    # the caches' own counters, as deltas over the traced region
    caches = {"verify_cache": verification_cache(), "share_image": share_image_cache()}
    start = {name: cache.stats() for name, cache in caches.items()}

    def cache_deltas() -> None:
        for name, cache in caches.items():
            now = cache.stats()
            for field in ("hits", "misses"):
                add(f"{name}.{field}", now[field] - start[name][field])

    tracer.at_uninstall.append(cache_deltas)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counts: dict[str, float], cache: str) -> float:
    hits = counts.get(f"{cache}.hits", 0)
    return _ratio(hits, hits + counts.get(f"{cache}.misses", 0))


def layer_metrics(trace: dict[str, Any], traced, untraced_round_s: list[float],
                  untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced episode (``trace`` as exported
    by :meth:`Tracer.export`, ``traced`` its ``EpisodeResult``); round
    times come from the untraced episodes, and they and
    ``untraced_wall_s`` are on the reference host."""
    tree, c = trace["tree"], trace["counts"]
    idle = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}

    def calls(name: str) -> float:
        return tree[name]["calls"] if name in tree else c.get(name, 0)

    def inclusive_s(name: str) -> float:
        return tree.get(name, idle)["inclusive_s"]

    def self_s(name: str) -> float:
        return tree.get(name, idle)["self_s"]

    round_ms = sorted(1000.0 * s for s in untraced_round_s)
    send_calls = calls("disperse.send")
    batches = calls("schnorr.batch_verify")
    signings = c.get("threshold_schnorr.completed", 0) + c.get("threshold_schnorr.failed", 0)
    return {
        "runner.step_s": inclusive_s("uls.step") + inclusive_s("authenticator.step"),
        "runner.adversary_s": inclusive_s("runner.adversary") + inclusive_s("faults.inject"),
        "runner.accounting_s": self_s("runner.run"),
        "runner.round_ms_p50": round_ms[(len(round_ms) - 1) // 2],
        "runner.round_ms_max": round_ms[-1],
        "runner.msgs_sent": traced.msgs_sent,
        "uls.step_self_s": self_s("uls.step"),
        "uls.on_round_self_s": self_s("uls.on_round"),
        "authenticator.step_self_s": self_s("authenticator.step"),
        "disperse.on_round_self_s": self_s("disperse.on_round"),
        "disperse.send_calls": send_calls,
        "disperse.send_self_s": self_s("disperse.send"),
        "disperse.copies_per_send": _ratio(c.get("disperse.copies", 0), send_calls),
        "auth_send.begin_round_self_s": self_s("auth_send.begin_round"),
        **{f"auth_send.sends.{kind}": c.get(f"auth_send.sends.{kind}", 0)
           for kind in ("pa", "ts", "rf", "app")},
        "auth_send.accept_ratio": _ratio(c.get("certify.ver_cert_many_accepted", 0),
                                         c.get("certify.ver_cert_many_items", 0)),
        "partial_agreement.on_round_self_s": self_s("partial_agreement.on_round"),
        "partial_agreement.sessions": calls("partial_agreement.start"),
        "certify.certify_calls": calls("certify.certify"),
        "certify.certify_self_s": self_s("certify.certify"),
        "certify.ver_cert_many_calls": calls("certify.ver_cert_many"),
        "certify.ver_cert_many_items": c.get("certify.ver_cert_many_items", 0),
        "certify.ver_cert_many_self_s": self_s("certify.ver_cert_many"),
        "threshold_schnorr.on_round_self_s": self_s("threshold_schnorr.on_round"),
        "threshold_schnorr.request_self_s": self_s("threshold_schnorr.request"),
        "threshold_schnorr.requests": calls("threshold_schnorr.request"),
        "threshold_schnorr.complete_ratio": _ratio(
            c.get("threshold_schnorr.completed", 0), signings),
        "refresh.on_round_self_s": self_s("refresh.on_round"),
        "refresh.begin_self_s": self_s("refresh.begin"),
        "refresh.failed": c.get("refresh.failed", 0),
        "feldman.verify_shares_batch_calls": calls("feldman.verify_shares_batch"),
        "feldman.verify_shares_batch_self_s": self_s("feldman.verify_shares_batch"),
        "feldman.batch_items_mean": _ratio(c.get("feldman.batch_items", 0),
                                           calls("feldman.verify_shares_batch")),
        "share_image.hit_ratio": _hit_ratio(c, "share_image"),
        **{f"schnorr.{op}_calls": calls(f"schnorr.{op}")
           for op in ("sign", "verify", "batch_verify")},
        **{f"schnorr.{op}_self_s": self_s(f"schnorr.{op}")
           for op in ("sign", "verify", "batch_verify")},
        "schnorr.batch_items_mean": _ratio(c.get("schnorr.batch_items", 0), batches),
        "schnorr.batch_fallback_ratio": _ratio(c.get("schnorr.batch_fallbacks", 0), batches),
        "verify_cache.hit_ratio": _hit_ratio(c, "verify_cache"),
        **{f"group.{op}_calls": c.get(f"group.{op}", 0)
           for op in ("power", "base_power", "fixed_power", "multi_power")},
        **{f"hashing.{op}_calls": c.get(f"hashing.{op}", 0)
           for op in ("encode_for_hash", "tagged_hash")},
        "faults.injected": traced.faults_injected,
        "trace.overhead": sum(traced.round_s) / untraced_wall_s,
    }


def coverage(spans: dict[str, list], wall_s: float) -> float:
    """Self times of every span over the traced wall time (1.0 when the
    runner stages and layers account for all of it)."""
    return sum(own for _calls, _inclusive, own in spans.values()) / wall_s
