"""Regenerate the byte corpus that ``tests/test_byte_corpus.py`` compares against.

Usage, from the root of a checkout::

    python3 tests/byte_corpus/regenerate.py

Each invocation below runs in process through ``fmoent.cli.main``; its stdout
is written to ``<name>.out`` in this directory and its argv and exit code to
``index.json``, together with the platform the bytes were produced on.  The
corpus records what fmoent prints, not what is right: a deliberate change of
output regenerates it, and the change names the rows that moved and why.

``{corpus}`` in an argv stands for this directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import numpy as np  # noqa: E402

from fmoent import cli  # noqa: E402

SITE_FILE = "sites.txt"
SITE_TEXT = """\
# BChl site energies (cm^-1): the reng set moved by up to 100 cm^-1
1 12391.270
2 12583.115
3 12177.902
4 12361.448
5 12506.031
6 12597.664
7 12419.587
"""


def _scan(observable, *axes, **fixed):
    argv = ["scan", "--observable", observable]
    for flag, axis in zip(("--axis1", "--axis2"), axes):
        argv += [flag, axis]
    for key, value in fixed.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


# name -> argv.  Layouts: reservoir outer axis (last block partial), t outer
# with a reservoir inner axis, b x t, t x b, n x t, t x n, a one-axis b sweep,
# an axis the observable does not read, scalar scans, a b-outer and a
# gamma0-outer scan whose inner sweep is longer than a 1,024-row block, and a
# one-axis sweep longer than a block.  Regimes: detuned sets, |B t| up to
# about 110, n = 12.
INVOCATIONS = {
    "delta_p-gamma0-t": _scan("delta_p", "gamma0:10:2000:11", "t:0:1:101", half_width=40),
    "u_amplitude-half_width-t": _scan(
        "u_amplitude", "half_width:10:300:8", "t:0:2:101", gamma0=1000, delta=50
    ),
    "u_amplitude-t-delta": _scan(
        "u_amplitude", "t:0:1.5:21", "delta:-200:200:9", gamma0=1500, half_width=40
    ),
    "q_closed-b-t": _scan("q_closed", "b:0:1:11", "t:0:1:51", gamma0=800, half_width=40),
    "q_closed-t-b": _scan("q_closed", "t:0:1:26", "b:0:1:11", gamma0=800, half_width=40, delta=30),
    "q_numeric-b-t": _scan("q_numeric", "b:0:1:11", "t:0:1:51", gamma0=800, half_width=40),
    "q_numeric-b": _scan("q_numeric", "b:0:1:21", t=0.4, gamma0=1000, half_width=30),
    "q_numeric-b-long_t": _scan(
        "q_numeric", "b:0.2:0.9:2", "t:0:1.5:1030", gamma0=1200, half_width=25, delta=-40
    ),
    "e_exciton-n-t": _scan("e_exciton", "n:2:12:11", "t:0:1:101", gamma0=1000, half_width=40),
    "e_exciton-gamma0-long_t": _scan(
        "e_exciton", "gamma0:200:1000:2", "t:0:1:1025", half_width=40, n=3
    ),
    "e_reservoir-t-n": _scan(
        "e_reservoir", "t:0:1:26", "n:2:7:6", gamma0=600, half_width=25, delta=20
    ),
    "e_reservoir-t-n12": _scan("e_reservoir", "t:0:1.2:51", n=12, gamma0=1400, half_width=60),
    "f_ghz_tele-n-t": _scan("f_ghz_tele", "n:2:7:6", "t:0:1:51", gamma0=1500, half_width=40),
    "f_w_tele-delta-t": _scan("f_w_tele", "delta:-300:300:6", "t:0:1:51", gamma0=1000, half_width=20),
    "f_w_tele-b-t-unread": _scan("f_w_tele", "b:0:1:3", "t:0:1:11", gamma0=1000, half_width=40),
    "f_ghz_split-t-gamma0": _scan(
        "f_ghz_split", "t:0:1:26", "gamma0:100:2000:6", half_width=40, n=5
    ),
    "f_w_split-half_width-t": _scan(
        "f_w_split", "half_width:5:150:6", "t:0:1.5:51", gamma0=1500, delta=-50
    ),
    "delta_p-long_t": _scan("delta_p", "t:0:2:1025", gamma0=1000, half_width=40, delta=10),
    "delta_p-scalar": _scan("delta_p", t=0.5, gamma0=1000, half_width=40, delta=-1e3),
    "q_closed-scalar": _scan("q_closed", t=0.3, gamma0=900, half_width=30, b=0.8),
    "f_ghz_split-scalar-n12": _scan("f_ghz_split", t=0.7, gamma0=1200, half_width=35, n=12),
    "e_exciton-n13-refused": _scan("e_exciton", "t:0:1:5", gamma0=1000, half_width=40, n=13),
    "check": ["check"],
    "table-reng": ["table", "--dataset", "reng"],
    "table-lorenExpt": ["table", "--dataset", "lorenExpt"],
    "table-wend": ["table", "--dataset", "wend"],
    "table-site_file": ["table", "--dataset", "{corpus}/" + SITE_FILE],
}


def platform_signature() -> dict:
    """What decides the last bits: numpy, the CPU features it dispatches to, libm."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = sorted(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    except ImportError:
        simd = ["unknown"]
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "simd": simd,
    }


def run(argv, corpus: Path = HERE) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``fmoent`` call."""
    out = io.StringIO()
    argv = [arg.replace("{corpus}", str(corpus)) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    (HERE / SITE_FILE).write_text(SITE_TEXT)
    for stale in HERE.glob("*.out"):
        stale.unlink()
    index = []
    for name, argv in INVOCATIONS.items():
        code, text = run(argv)
        (HERE / f"{name}.out").write_text(text)
        index.append({"name": name, "argv": argv, "exit": code})
    document = {"platform": platform_signature(), "invocations": index}
    (HERE / "index.json").write_text(json.dumps(document, indent=1) + "\n")
    rows = sum(text.count("\n") for text in (p.read_text() for p in HERE.glob("*.out")))
    print(f"wrote {len(index)} invocations, {rows} lines, to {HERE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
