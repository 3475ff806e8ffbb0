"""Identical inputs print identical bytes: every corpus invocation against its recorded stdout.

The corpus (``tests/byte_corpus``, rebuilt by its ``regenerate.py``) covers
each scan observable on small grids, the default ``check``, the three builtin
tables and one site file.  On the platform that recorded it (same numpy, CPU
dispatch targets and libc, see ``index.json``) stdout must match byte for
byte.  Elsewhere the last bits of numpy's transcendental functions and of
LAPACK may differ, so the text around the numbers must match and each number
must agree within ``FOREIGN_RTOL`` relative or ``FOREIGN_ATOL`` absolute (the
``check`` figures are rounding-level errors of about 1e-13).  A mismatch
reports the rows that differ and their largest relative difference.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "byte_corpus"
FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-12
_SHOWN = 8  # differing rows shown per invocation

_spec = importlib.util.spec_from_file_location("regenerate", CORPUS / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

INDEX = json.loads((CORPUS / "index.json").read_text())
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf


def _within(a: float, b: float) -> bool:
    return abs(a - b) <= FOREIGN_ATOL + FOREIGN_RTOL * max(abs(a), abs(b))


def differing_rows(expected: str, got: str):
    """(line number, expected, got, largest relative difference, within tolerance) per differing line."""
    want, have = expected.splitlines(), got.splitlines()
    rows = []
    for lineno in range(max(len(want), len(have))):
        a = want[lineno] if lineno < len(want) else ""
        b = have[lineno] if lineno < len(have) else ""
        if a == b:
            continue
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(xs) != len(ys):
            rows.append((lineno + 1, a, b, math.inf, False))
            continue
        pairs = [(float(x), float(y)) for x, y in zip(xs, ys)]
        worst = max(_relative(x, y) for x, y in pairs)
        rows.append((lineno + 1, a, b, worst, all(_within(x, y) for x, y in pairs)))
    return rows


def report(name: str, rows) -> str:
    worst = max(row[3] for row in rows)
    lines = [f"{name}: {len(rows)} rows differ, largest relative difference {worst:.3g}"]
    for lineno, a, b, rel, _ in rows[:_SHOWN]:
        lines += [f"  line {lineno} (relative {rel:.3g})", f"    corpus: {a}", f"    now:    {b}"]
    lines.append(f"  recorded on {INDEX['platform']}, running on {regenerate.platform_signature()}")
    return "\n".join(lines)


def test_the_corpus_holds_every_invocation_of_the_script():
    assert [entry["name"] for entry in INDEX["invocations"]] == list(regenerate.INVOCATIONS)
    assert [entry["argv"] for entry in INDEX["invocations"]] == list(regenerate.INVOCATIONS.values())
    assert sorted(path.stem for path in CORPUS.glob("*.out")) == sorted(regenerate.INVOCATIONS)


@pytest.mark.parametrize("entry", INDEX["invocations"], ids=lambda entry: entry["name"])
def test_prints_the_corpus_bytes(entry):
    code, text = regenerate.run(entry["argv"])
    assert code == entry["exit"], entry["name"]
    expected = (CORPUS / f"{entry['name']}.out").read_text()
    if text == expected:
        return
    rows = differing_rows(expected, text)
    if INDEX["platform"] == regenerate.platform_signature():
        pytest.fail(report(entry["name"], rows), pytrace=False)
    if not all(row[4] for row in rows):
        pytest.fail(report(entry["name"], rows) + "\n  (beyond the foreign-platform tolerance)", pytrace=False)
    print(report(entry["name"], rows))


def test_a_last_digit_change_is_reported():
    expected = "t_ps,delta_p\n0,1\n0.5,0.669032287396\n"
    rows = differing_rows(expected, expected.replace("0.669032287396", "0.669032287397"))
    assert [(lineno, rel, within) for lineno, _, _, rel, within in rows] == [
        (3, pytest.approx(1.5e-12, rel=0.01), True)
    ]
    assert "1 rows differ, largest relative difference 1.49e-12" in report("delta_p", rows)
    # beyond the foreign-platform tolerance: a sixth digit, a missing row
    assert not differing_rows(expected, expected.replace("0.669032", "0.669033"))[0][4]
    assert differing_rows(expected, "t_ps,delta_p\n0,1\n")[0][3:] == (math.inf, False)
