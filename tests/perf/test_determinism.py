"""Determinism guarantees the perf layer and harness rely on.

* Schnorr signing is derandomized: same key + message → same signature,
  and signing never reads or advances any RNG (module-level ``random``
  included) — the parallel benchmark harness replays executions across
  processes and needs byte-identical transcripts.
* The perf layer is transcript-neutral: a ULS execution with every
  batch path and the group's exponentiation engine engaged is equal,
  record for record, to the same execution checking every item alone
  with cold caches and plain ``pow``.
"""

import random

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


# ------------------------------------------------------------ signing

def test_sign_is_deterministic(perf):
    pair = SCHEME.generate(random.Random(3))
    first = SCHEME.sign(pair.signing_key, b"replayed message")
    second = SCHEME.sign(pair.signing_key, b"replayed message")
    assert first == second
    assert first != SCHEME.sign(pair.signing_key, b"different message")


def test_sign_never_touches_global_random(perf):
    pair = SCHEME.generate(random.Random(3))
    random.seed(12345)
    state_before = random.getstate()
    for i in range(10):
        SCHEME.sign(pair.signing_key, b"msg %d" % i)
        SCHEME.verify(pair.verify_key, b"msg %d" % i,
                      SCHEME.sign(pair.signing_key, b"msg %d" % i))
    assert random.getstate() == state_before


def test_distinct_messages_distinct_nonces(perf):
    """Derandomization must not collapse nonces across messages (that
    would leak the key); distinct messages give distinct commitments."""
    pair = SCHEME.generate(random.Random(4))
    commitments = {
        SCHEME.sign(pair.signing_key, b"m%d" % i).commitment for i in range(32)
    }
    assert len(commitments) == 32


# ------------------------------------------------- transcript neutrality

def _run_uls(adversary_factory, units=3, seed=3):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary_factory(), SCHED, s=T, seed=seed)
    runner.add_external_input(0, SCHED.setup_rounds + 1, ("sign", ("doc", 1)))
    execution = runner.run(units=units)
    return execution


def _records_key(execution):
    return [
        (
            record.info.round,
            record.sent,
            # zero-copy records carry lists where full records carry
            # tuples; content equality is what neutrality promises
            sorted((receiver, tuple(envelopes))
                   for receiver, envelopes in record.delivered.items()),
            sorted(record.broken),
            sorted(record.operational),
            sorted(sorted(link) for link in record.unreliable_links),
        )
        for record in execution.records
    ]


def _assert_same_execution(left, right):
    assert _records_key(left) == _records_key(right)
    assert left.system_log == right.system_log
    assert left.node_outputs == right.node_outputs
    assert left.adversary_output == right.adversary_output


def _optimized_and_baseline(adversary_factory, per_item):
    """The run as the package computes it, then the per-item, plain-``pow``
    reference run."""
    optimized = _run_uls(adversary_factory)
    per_item()
    return optimized, _run_uls(adversary_factory)


def test_perf_layer_is_transcript_neutral_benign(perf, per_item):
    _assert_same_execution(*_optimized_and_baseline(PassiveAdversary, per_item))


def test_perf_layer_is_transcript_neutral_under_attack(perf, per_item):
    def adversary():
        return FaultInjectionAdversary(breakins(SCHED, {1: {2}, 2: {4}}))

    _assert_same_execution(*_optimized_and_baseline(adversary, per_item))


def test_repeat_run_with_caches_warm_is_identical(perf):
    first = _run_uls(PassiveAdversary)
    second = _run_uls(PassiveAdversary)  # warm caches, same seeds
    _assert_same_execution(first, second)
