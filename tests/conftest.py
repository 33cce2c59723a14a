"""The ``wire`` test parameter: the refresh wire format of the ULS
networks a test builds (AUTH-SEND's, :mod:`repro.wire`; the AL harness
and the DKG run over a transport that never packs, so they have one
form).

A test that requests the ``wire`` fixture runs once per format: under
its own name with the paper-literal wire (``"paper"``), and a second
time with ``-aggregated`` appended to its parameter id (``[aggregated]``
when it has none) on the aggregated wire.  The paper run keeps the
plain test name, so a test's name means the same thing whether or not
it takes the parameter.
"""

import pytest

AGGREGATED = "aggregated"


def _aggregated_name(name: str) -> str:
    if name.endswith("]"):
        return f"{name[:-1]}-{AGGREGATED}]"
    return f"{name}[{AGGREGATED}]"


@pytest.hookimpl(hookwrapper=True)
def pytest_pycollect_makeitem(collector, name, obj):
    outcome = yield
    items = outcome.get_result()
    if not isinstance(items, list):
        return
    with_twins = []
    for item in items:
        with_twins.append(item)
        if isinstance(item, pytest.Function) and "wire" in item.fixturenames:
            twin = pytest.Function.from_parent(
                collector,
                name=_aggregated_name(item.name),
                callspec=getattr(item, "callspec", None),
                callobj=item.obj,
                fixtureinfo=item._fixtureinfo,
                keywords=item.keywords,
                originalname=item.originalname,
            )
            twin.wire = AGGREGATED
            with_twins.append(twin)
    outcome.force_result(with_twins)


@pytest.fixture
def wire(request) -> str:
    """``"paper"``, or ``"aggregated"`` in a test's aggregated twin."""
    return getattr(request.node, "wire", "paper")
