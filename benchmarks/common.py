"""Shared infrastructure for the experiment benchmarks.

Each ``bench_e*.py`` regenerates one experiment from the per-experiment
index in DESIGN.md: it sweeps the experiment's parameters, prints the
resulting table, saves it under ``benchmarks/results/``, asserts the
paper-level claims hold (who wins / what is detected), and times one
representative kernel through pytest-benchmark.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Sequence

from repro.analysis.digest import transcript_digest
from repro.analysis.verdict import Verdict
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.shamir import Share
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table, the same shape the paper's claims take."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered_rows)) if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def emit(experiment_id: str, table: str, data: Any | None = None, *,
         persist: bool = True) -> None:
    """Print the table and persist it under benchmarks/results/.

    When ``data`` is given, a machine-readable twin of the table is also
    written as ``BENCH_<EXPERIMENT>.json`` (e.g. ``e8_complexity`` →
    ``BENCH_E8.json``) so downstream tooling — CI artifacts, regression
    diffing, the ROADMAP numbers — never has to parse the text table.
    With ``persist=False`` (a ``BENCH_SMOKE=1`` sweep) the table is only
    printed, so the committed full-sweep results stay as they are.
    """
    print("\n" + table + "\n")
    if not persist:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(table + "\n")
    if data is not None:
        emit_json(f"BENCH_{experiment_id.split('_')[0].upper()}", data)


def emit_json(stem: str, data: Any) -> pathlib.Path:
    """Write ``data`` as canonical JSON (sorted keys) to
    ``benchmarks/results/<stem>.json`` and return the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def table_data(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> dict:
    """The standard JSON twin of a text table: named columns per row."""
    return {
        "headers": list(headers),
        "rows": [dict(zip(headers, map(_jsonable, row))) for row in rows],
    }


def _jsonable(cell: Any) -> Any:
    if isinstance(cell, (str, int, float, bool)) or cell is None:
        return cell
    return str(cell)


# transcript_digest lives in repro.analysis.digest (the E15 campaign layer
# needs it inside the package); re-exported above so the benchmarks and the
# golden-digest test keep their import path.


def build_uls_network(n: int, t: int, seed: int, adversary=None, relay_fanout=None,
                      normal_rounds: int = 12, *, wire: str = "paper",
                      compact_records: bool = False):
    """Standard ULS network construction used across experiments."""
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=seed)
    programs = [
        UlsProgram(states[i], SCHEME, keys[i], relay_fanout=relay_fanout, wire=wire)
        for i in range(n)
    ]
    schedule = uls_schedule(normal_rounds=normal_rounds)
    runner = ULRunner(programs, adversary or PassiveAdversary(), schedule,
                      s=t, seed=seed, compact_records=compact_records)
    return public, programs, runner, schedule


def key_histories(programs) -> dict[int, dict[int, str]]:
    return {i: dict(p.keystore.history) for i, p in enumerate(programs)}


def corrupt_share(program, rng) -> None:
    """Memory corruption at a break-in: a random value for the PDS share."""
    state = program.state
    state.share = Share(x=state.share_index, value=rng.randrange(GROUP.q))


def judged_run(runner, t: int, units: int, *, fail_fast: bool = False):
    """Run ``runner`` with the run's verdict (:mod:`repro.analysis.verdict`)
    attached live; returns the execution and the verdict's report."""
    verdict = Verdict(t, [node.program for node in runner.nodes], fail_fast=fail_fast)
    runner.observers.append(verdict)
    execution = runner.run(units=units)
    return execution, verdict.report(execution)
