"""Golden digests: committed per-seed transcripts pin the protocols' behaviour.

Every point of the E14 sweep (the E13 chaos workloads and the full-flood
E8 refresh) and of the E16 sweep (crypto-free floods, chaos aggregates,
a sparse-relay E8 refresh) is replayed here, and its transcript digest
must equal the value committed in ``benchmarks/results/BENCH_E14.json``
and ``BENCH_E16.json``.  Those values were recorded while every
optimisation still had an unoptimised twin and both twins produced them,
so a change to what any protocol sends, delivers, outputs or logs shows
up as a digest change here.  The tables below are literal copies.

The E8 n = 13 full flood also pins the two refresh wire formats: its
messages per refreshment phase on the paper-literal and on the
aggregated wire, with equal outcome digests, and the aggregated run's
transcript digest.
"""

import pathlib
import sys

import pytest

from repro.analysis.digest import RoundsDigest, outcome_digest
from repro.analysis.metrics import message_stats

# the benchmark modules import their siblings as top-level modules
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_e16_simfloor as e16  # noqa: E402
from bench_e13_chaos import run_disperse_chaos, run_uls_chaos  # noqa: E402
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
    "uls-100": "a5f9be0f7c0a4c847937aa171e8a8c2358d8d91cea62972536ed6ea7b6b40d69",
    "uls-101": "e49e2160725aca5f059d72bc4cb458c5b8ff3b1b3d42eb43e3806d390830b84a",
    "uls-102": "da2f67bc79fb5d7bef3c16f645ed27864ec2520a38c2cbbce8bd3e649a619a04",
    "uls-103": "76adb577f9e008c09ec8b5c1bc5bc2f614fb5e4aeaae86c6623381222ced90f9",
    "uls-104": "2bec55450d93f3c1d1d9bb5ccd1a6cc91727b1a9bf11443978aa214f7cbdb3e6",
    "uls-105": "9a6bdc4b7bbc6770451a98e9be9c51c4cff6943b846183c02f728a83a77dc337",
    "uls-106": "8b327c0c62b01e228987fa5c37a84b9ad002218d814234fc7acc875a0f721a43",
    "uls-107": "26eb266c27512aeb2261cee627c2e60196b29586dd57c80b2edac887058cbea6",
    "uls-108": "4c71353b75099b0d6fed3086cfb800a2d51d3ef4ce295d3af813d6b623182550",
    "uls-109": "39c9685832366a86309dfb6d35b09263f6d5b7fa37eb430e94f004e8d1c60fdf",
    "e8-9": "c69ddbddd35fcfb6138bfa12de1d6463095db9de8e4b6b217b2d4bf638f6c132",
    "e8-13": "0627ad256eba58ecd768dcdb3fa7b450f503377db5e1d0cdfd5202bd8aef6660",
}

E16_DIGESTS = {
    "flood-n5": "5d9e562c2995b866af144dc2ece8c8e08213d70233ead05626d8d3cf0c9eca1b",
    "flood-n13": "c79d80b4a619e57c6b967b8879e7fac01ac4e6630426c687255a9be0f590b982",
    "flood-n25": "67dbd0673d3122475ece1619de9cab20690e78bb18c273c17d2768e59dae2e05",
    "flood-n49": "227fe7c9327e91eb326b1cf01cacc168cbf16770d216f9941be1c6318223af94",
    "chaos-disperse": "f6451750eb5aefcaca2c7b608a298748aeb46eddb75ce65af1552ceb662a1e4c",
    "chaos-uls": "b6d41ece6b597d507fc886b5ce80186bd5d271d5beef9d2d1bf91b69c126e64e",
    "e8-n13": "cadb2df0c11e9aac2b51911ae98bb73c83f93dacdd7766f064dfc933433f2751",
}

#: the streaming rounds digest of the n = 13 flood, compact or full records
E16_COMPACT_ROUNDS_DIGEST = "4c13c3d829e98d45ce17e4e680ca3083e155d14bdf6d0f580fb12725e7ba19ff"

#: E8 n = 13 full flood (t = 2, two units, seed 0): messages per refresh
E8_N13_MSGS_PER_REFRESH = {"paper": 760_812, "aggregated": 87_672}
#: ... and the transcript digest of its aggregated-wire run
E8_N13_AGGREGATED_DIGEST = "bdf6bc2bb0d750e4fb9ed9f528f96c04f957565fa531da10ae2f73a09d82e575"

E8_T = 2
E8_UNITS = 2


def _run_e8(n: int, wire: str = "paper"):
    public, programs, runner, schedule = build_uls_network(n, E8_T, seed=0, wire=wire)
    return runner.run(units=E8_UNITS)


@pytest.fixture(scope="module")
def e8_n13_paper():
    """The E14 ``e8-13`` point, which is also E8's n = 13 paper-wire run."""
    return _run_e8(13)


@pytest.mark.parametrize("point", [p for p in E14_DIGESTS if p != "e8-13"])
def test_e14_point_digest(point):
    kind, param = point.split("-")
    runs = {"disperse": lambda seed: run_disperse_chaos(seed)[1],
            "uls": lambda seed: run_uls_chaos(seed)[1],
            "e8": _run_e8}
    assert transcript_digest(runs[kind](int(param))) == E14_DIGESTS[point]


def test_e14_e8_n13_digest(e8_n13_paper):
    assert transcript_digest(e8_n13_paper) == E14_DIGESTS["e8-13"]


@pytest.mark.parametrize("point", e16.FULL_POINTS, ids=e16.point_id)
def test_e16_point_digest(point):
    assert e16.combined_digest(e16.run_point(point)) == E16_DIGESTS[e16.point_id(point)]


@pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
def test_e16_rounds_digest(compact):
    digest = RoundsDigest()
    e16.run_flood(13, observers=[digest], compact_records=compact)
    assert digest.hexdigest() == E16_COMPACT_ROUNDS_DIGEST


def test_e8_n13_wire_formats(e8_n13_paper):
    aggregated = _run_e8(13, wire="aggregated")
    assert message_stats(e8_n13_paper).per_refresh_phase == E8_N13_MSGS_PER_REFRESH["paper"]
    assert (message_stats(aggregated).per_refresh_phase
            == E8_N13_MSGS_PER_REFRESH["aggregated"])
    assert outcome_digest(aggregated) == outcome_digest(e8_n13_paper)
    assert transcript_digest(aggregated) == E8_N13_AGGREGATED_DIGEST
