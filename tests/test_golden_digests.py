"""Golden digests: committed per-seed transcripts pin the protocols' behaviour.

Every point of the E14 sweep (the E13 chaos workloads and the full-flood
E8 refresh) and of the E16 sweep (crypto-free floods, chaos aggregates,
a sparse-relay E8 refresh) is replayed here, and its transcript digest
must equal the value in the tables below, so a change to what any
protocol sends, delivers, outputs or logs shows up as a digest change
here.  The values were recorded while every optimisation still had an
unoptimised twin and both twins produced them, except at the points
re-pinned when the paper wire's PARTIAL-AGREEMENT step 3 began sending
one pack per session and receiver.  At those points the E14 table
differs from ``benchmarks/results/BENCH_E14.json``, which stays the
historical record of the sweep as first run; ``BENCH_E16.json`` carries
the current values.

A point is re-pinned only with its outcomes held fixed: for each one,
:data:`OUTCOME_DIGESTS` holds what the protocols did, recorded before the
change, and the point must still do it.

The E8 n = 13 full flood also pins the two refresh wire formats: its
messages per refreshment phase on the paper-literal and on the
aggregated wire, with equal outcome digests, and the aggregated run's
transcript digest.
"""

import hashlib
import pathlib
import sys

import pytest

from repro.analysis.digest import RoundsDigest, outcome_digest, stable_form
from repro.analysis.metrics import message_stats

# the benchmark modules import their siblings as top-level modules
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_e16_simfloor as e16  # noqa: E402
from bench_e13_chaos import UNITS as CHAOS_UNITS, disperse_chaos, uls_chaos  # noqa: E402
from common import build_uls_network, transcript_digest  # noqa: E402

E14_DIGESTS = {
    "disperse-0": "db6549f9852720f67efd22ab6a223b7b472f4ef87106d2c571491d6a99b4302c",
    "disperse-1": "f1561e5fc2e62769d0e50ca74fdf706779294ba953dbea3dd504b376392d4b48",
    "disperse-2": "328c54db2e3b33da70d9840bdcf7dcd16cc6c7742f13de3bdc16fd8f7d5728ac",
    "disperse-3": "116f539ca3710ae179c7683cde92dc98204652664885c998b9cb22c5d05ad201",
    "disperse-4": "d499ae75c692df2ae5e7c64dd5726064f79d0f21727869cdb9a0d54d7e5947ba",
    "disperse-5": "dab9ff5ae380017b0ffc42b10e29ccbd5ea3c39df2e79dd05355f8f01562bfd0",
    "disperse-6": "d0aaf0ad49f2308ac6d27c85ac84e5a6be814dc04db9c99f7547c56a993721b4",
    "disperse-7": "3b05497c19371a941dc2bf924d369b5a7a238277142e208b31da6b9f73953cdb",
    "disperse-8": "e832d48abd24f5da0ecd0f4748f9ccc79ac3a3ef6be528dcf4207b004efef60d",
    "disperse-9": "cc78c5d2fcee04a9650459a031be01510a710bd33689d8b00c3cb0ab38497798",
    "uls-100": "3ac7a4ab207fec1a5dfeb7290dfb499f11ea628341a41659e7597ae115b82bf3",
    "uls-101": "dd64e0d845b32c1dada20b7cfb3ca15f21c2275f06b89a66ebe4bb9a559e6426",
    "uls-102": "7a617e2b5ae484c8e7603d71aa012d26c090a42bf78518fa6acaef108131ddad",
    "uls-103": "b0404b479e7d8dc9b1e7184eb475fb4d03a1bab42f9700dac519b87e9e8c104b",
    "uls-104": "710c6a485d4e019b8310896241381819ac8a5a5972f1fd1769966043d384287e",
    "uls-105": "318921a5c627dd5931b18ef0ca24ac9071925d216d64d318d9644df838827cbd",
    "uls-106": "c1bf778e51a1c044f2c65b930f1cf9a2725607393858d4c9affb2df2e78b08cc",
    "uls-107": "5c89cc43133a819b4e17b6ee4d567a9a6e9025c3db908b52d7da6e9fe828a03b",
    "uls-108": "ba6bc629995867668d7f9bf9639893323a6d63731c3897d3675ff1b409428235",
    "uls-109": "e3096d2f81e9d2d016d1eac04bba50f90f4553bbcae9cd7d5333bb59260922d9",
    "e8-9": "faaa54532978e2154e01c5eaf650aac2d402c065a6eb376bedd557c31d1bdb26",
    "e8-13": "e23dd8d1d5fe839ef9d9c8e9284c473842c1f02b8bbfb9c870bb64aa5eab281a",
}

E16_DIGESTS = {
    "flood-n5": "5d9e562c2995b866af144dc2ece8c8e08213d70233ead05626d8d3cf0c9eca1b",
    "flood-n13": "c79d80b4a619e57c6b967b8879e7fac01ac4e6630426c687255a9be0f590b982",
    "flood-n25": "67dbd0673d3122475ece1619de9cab20690e78bb18c273c17d2768e59dae2e05",
    "flood-n49": "227fe7c9327e91eb326b1cf01cacc168cbf16770d216f9941be1c6318223af94",
    "chaos-disperse": "f6451750eb5aefcaca2c7b608a298748aeb46eddb75ce65af1552ceb662a1e4c",
    "chaos-uls": "f58b8e3d55af5c350be28a9218a3e43f687353740d475eafde591b9a518e623f",
    "e8-n13": "03848a57891c0df250fd75574c509fd0ea526643b67678c5fad0e6865bf5b4ee",
}

#: the streaming rounds digest of the n = 13 flood, compact or full records
E16_COMPACT_ROUNDS_DIGEST = "4c13c3d829e98d45ce17e4e680ca3083e155d14bdf6d0f580fb12725e7ba19ff"

#: E8 n = 13 full flood (t = 2, two units, seed 0): messages per refresh
E8_N13_MSGS_PER_REFRESH = {"paper": 247_728, "aggregated": 87_672}
#: ... and the transcript digest of its aggregated-wire run
E8_N13_AGGREGATED_DIGEST = "bdf6bc2bb0d750e4fb9ed9f528f96c04f957565fa531da10ae2f73a09d82e575"

#: Per re-pinned point: the outcome digest of its runs and a digest of
#: every node's blame records (``rejected_dealers``, ``rejected_partials``),
#: key history and certified key reprs (:func:`_outcomes`).  Recorded when
#: PARTIAL-AGREEMENT step 3 still sent one DISPERSE per forwarded
#: certified message; it now sends one pack per session and receiver,
#: which changes the paper wire's transcripts and must change nothing else.
OUTCOME_DIGESTS = {
    "uls-100": (
        "8f2a55ca0675013fbabbd49df03fdaa08275ed449d89801e18d5f710de9770bc",
        "0b94c707f18fa0e17ee8665086a6a9fdbc02349d396c21a61302e4f5494203f5",
    ),
    "uls-101": (
        "91917791f3dc6e0bacd6362d05119502fe5572a0b821e9793cab076e0bd5e01c",
        "5f318eceace150bc171b3b30b09e4a0de1079b075efe95610f5cc1bd730ac3d2",
    ),
    "uls-102": (
        "1ed47d045e091fb472094150ec3b7e6276648ec4eed23045354effafd9f5fa05",
        "07457c66d77c467afaa98b678dbfd99eaa141a554db932a3d5c9ad7ab6f2cea8",
    ),
    "uls-103": (
        "6c4418fd94a5da227906734c23e8d8f87f0eb5c5f938f6e44557dbed1a693073",
        "8627dc7c84c51d83e84801d27c6a615b89a08ce9ca04993df2d6db912bd7e904",
    ),
    "uls-104": (
        "18f0c5d7793f13f92c93aa2d7ab5cc5a98b45ab84acd764ef2fb211f3c706da8",
        "de5856016dbcd430ab8148f0e2598b8b2de4e4ca91dafea3a76c88bf7b7c64e1",
    ),
    "uls-105": (
        "2672bff51021cbe52dfb4edc8b3f97b32550f140337ab02201245a5d8c60c3b7",
        "7b8dd4a292cd7932d0e8a1d5e2fe428f15c34796e74bf26a8ee5a25af71efa87",
    ),
    "uls-106": (
        "75a0c3892f5d51fa43b37a0c4219e7d7087be92da253e1429fd23c947e588348",
        "7787c5964d608a3fa5c125ceff83c12dc0302c3aadb29ad2846ffa4e7f67eef4",
    ),
    "uls-107": (
        "44f699ce983466352bf7abb63f7967445c0f63b5980f0b3e7a81928ce09acb75",
        "1e5007a48e27915ca1dd2af22848ca66a6807f78ab63ed81207fec09167a4c8c",
    ),
    "uls-108": (
        "131d53ab5b7bf2c36d0f6d443b5c234f34db6b83eb7511d9006a1a8bd2d9ad08",
        "057f9f279725f3600c81039aca1662324f08aa17e7133286e754c1041f04ce53",
    ),
    "uls-109": (
        "7ae1e60a20b94d4271efadf30b31ece67ff673bf9202bb9e23177cd9dc12ae94",
        "4e4d53944a14606ac33f450f671efedf9c0605b6b6154cf77471de41eec0c73c",
    ),
    "e8-9": (
        "2d1c23998e971a1aea37c19a0d54917858490265b05b2f4a0ebec994c62188ee",
        "3daa0770709ce6f68b7f095eb6cd70270fc655e04433b59eb60b4af93701d918",
    ),
    "e8-13": (
        "c5492e70124619973740bcb0122856ab3012eafedb7c9dcf2f0459c3f710925d",
        "07b7473a06784a2cc1b25d3f3fe81681b8d8cc90f547c9d0e90ea0e8732f1526",
    ),
    "chaos-uls": (
        "24ca482a4436677350b802abfae9ba7452354c7c6525bc3271e147871173d158",
        "c7ae9b7dd395bf0fc65a2b3122fde0fd8b05e5fe7f3e76e2ac217cca6d1dd63a",
    ),
    "e8-n13": (
        "c5492e70124619973740bcb0122856ab3012eafedb7c9dcf2f0459c3f710925d",
        "07b7473a06784a2cc1b25d3f3fe81681b8d8cc90f547c9d0e90ea0e8732f1526",
    ),
}

E8_T = 2
E8_UNITS = 2


def _state_digest(programs) -> str:
    state = [
        (program.core.refresher.rejected_dealers, program.core.signer.rejected_partials,
         program.keystore.history, program.keystore.key_reprs)
        for program in programs
    ]
    return hashlib.sha256(repr(stable_form(state)).encode("utf-8")).hexdigest()


def _joined(digests: list[str]) -> str:
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("|".join(digests).encode("ascii")).hexdigest()


def _outcomes(runners, executions) -> tuple[str, str]:
    """``(outcome digest, state digest)`` of ULS runs; the runs of a point
    of several seeds are joined as E16's ``combined_digest`` joins them."""
    return (
        _joined([outcome_digest(execution) for execution in executions]),
        _joined([_state_digest([node.program for node in runner.nodes])
                 for runner in runners]),
    )


def _run_e14(point: str, wire: str = "paper"):
    kind, param = point.split("-")
    if kind == "e8":
        runner = build_uls_network(int(param), E8_T, seed=0, wire=wire)[2]
        return runner, runner.run(units=E8_UNITS)
    runner = {"disperse": disperse_chaos, "uls": uls_chaos}[kind](int(param))
    return runner, runner.run(units=CHAOS_UNITS)


def _check_outcomes(point: str, runners, executions) -> None:
    if point in OUTCOME_DIGESTS:
        assert _outcomes(runners, executions) == OUTCOME_DIGESTS[point]


@pytest.fixture(scope="module")
def e8_n13_paper():
    """The E14 ``e8-13`` point, which is also E8's n = 13 paper-wire run."""
    return _run_e14("e8-13")


@pytest.mark.parametrize("point", [p for p in E14_DIGESTS if p != "e8-13"])
def test_e14_point_digest(point):
    runner, execution = _run_e14(point)
    assert transcript_digest(execution) == E14_DIGESTS[point]
    _check_outcomes(point, [runner], [execution])


def test_e14_e8_n13_digest(e8_n13_paper):
    runner, execution = e8_n13_paper
    assert transcript_digest(execution) == E14_DIGESTS["e8-13"]
    _check_outcomes("e8-13", [runner], [execution])


@pytest.mark.parametrize("point", e16.FULL_POINTS, ids=e16.point_id)
def test_e16_point_digest(point):
    runs = e16.point_runs(point)
    executions = [runner.run(units=units) for runner, units in runs]
    assert e16.combined_digest(executions) == E16_DIGESTS[e16.point_id(point)]
    _check_outcomes(e16.point_id(point), [runner for runner, _ in runs], executions)


@pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
def test_e16_rounds_digest(compact):
    digest = RoundsDigest()
    e16.run_flood(13, observers=[digest], compact_records=compact)
    assert digest.hexdigest() == E16_COMPACT_ROUNDS_DIGEST


def test_e8_n13_wire_formats(e8_n13_paper):
    paper = e8_n13_paper[1]
    aggregated = _run_e14("e8-13", wire="aggregated")[1]
    assert message_stats(paper).per_refresh_phase == E8_N13_MSGS_PER_REFRESH["paper"]
    assert (message_stats(aggregated).per_refresh_phase
            == E8_N13_MSGS_PER_REFRESH["aggregated"])
    assert outcome_digest(aggregated) == outcome_digest(paper)
    assert transcript_digest(aggregated) == E8_N13_AGGREGATED_DIGEST
