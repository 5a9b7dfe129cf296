"""Byte-for-byte CLI transcripts.

Each case runs ``cli.main`` in-process and compares its stdout, stderr and
exit code with the block of the same name in ``tests/golden/cli.txt``.
Output lines are stored behind ``| ``, so no output can be mistaken for a
block header.  Running this file as a script rewrites the golden file from
the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from wreathvar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
MANIFEST = "manifest.txt"  # written to the working directory of the case
COLUMNS = "80"  # argparse wraps its help to the terminal width

SAMPLE = "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}"
D4_Q8 = ["--a1", "D4", "--a2", "Q8", "--b1", "C_{2^2}^3 * C_2", "--b2", "C_{2^2} * C_2^7"]
D4_Q8_INFINITE = ["--a1", "D4", "--a2", "Q8", "--b1", "C_{2^2}^3 * C_2^{aleph_0}",
                  "--b2", "C_{2^2} * C_2^{aleph_0}"]
MULTI_PASSIVE = "D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}"
MULTI_PRIME = [
    "--a1", MULTI_PASSIVE, "--a2", MULTI_PASSIVE,
    "--b1", "C_{2^5}^3 * C_{2^4}^{aleph_1} * C_2^8 * C_3^{aleph_1} * C_7^8",
    "--b2", "C_{2^5}^3 * C_{2^4}^{aleph_0} * C_{2^3}^2 * C_2^9 * C_3^{aleph_0} * C_7^9",
]
NON_NILPOTENT_LINES = "C_2 * C_3 Wr C_2\nC_2 Wr C_3\n"


def pair(a1, a2, b1, b2):
    return ["--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2]


def both(name, *argv, manifest=None):
    """The case as text and, with ``--json`` after the verb, as JSON."""
    return [(name, list(argv), manifest),
            (name + "-json", [argv[0], "--json", *argv[1:]], manifest)]


CASES = [
    # parse
    *both("parse-sample", "parse", SAMPLE),
    *both("parse-trivial", "parse", "1"),
    *both("parse-plain-bases", "parse", "C_{4}^2 * C_8 * C_9^{aleph_0} * C_2^{0}"),
    *both("parse-aleph-index", "parse", "C_2^{aleph_3} * C_{2^2}^{aleph}"),
    *both("parse-not-a-prime-power", "parse", "C_{6}"),
    *both("parse-braced-not-a-prime", "parse", "C_{6^2}"),
    *both("parse-zero-exponent", "parse", "C_{2^0}"),
    *both("parse-order-beyond-digit-limit", "parse", "C_{2^14285}"),
    *both("parse-non-ascii-digit", "parse", "C_²"),
    *both("parse-unexpected-character", "parse", "C_2 + C_3"),
    *both("parse-missing-star", "parse", "C_2 C_3"),
    *both("parse-bad-multiplicity", "parse", "C_2^{x}"),
    *both("parse-empty", "parse", ""),
    ("parse-json-before-verb", ["--json", "parse", "C_{2^2}^3 * C_2"], None),
    # classify: nilpotent
    *both("classify-c3-c9-squared", "classify", "--passive", "C_3", "--active", "C_{3^2}^2"),
    *both("classify-c3-c9-c3", "classify", "--passive", "C_3", "--active", "C_{3^2} * C_3^4"),
    *both("classify-d4", "classify", "--passive", "D4", "--active", "C_{2^2}^3 * C_2"),
    *both("classify-q8", "classify", "--passive", "Q8", "--active", "C_{2^2} * C_2^7"),
    *both("classify-profile", "classify", "--passive", "nilpotent(p=2, s=[3, 1], dl=2)",
          "--active", "C_{2^3} * C_2^2"),
    *both("classify-long-chain", "classify", "--passive", "C_2", "--active", "C_{2^60}"),
    # classify: each Baumslag reason, then failures
    *both("classify-active-infinite", "classify", "--passive", "C_2",
          "--active", "C_2^{aleph_0}"),
    *both("classify-passive-not-p-group", "classify", "--passive", "C_2 * C_3",
          "--active", "C_2"),
    *both("classify-active-other-prime", "classify", "--passive", "C_2", "--active", "C_3"),
    *both("classify-trivial-active", "classify", "--passive", "C_2", "--active", "1"),
    *both("classify-unknown-preset", "classify", "--passive", "S3", "--active", "C_2"),
    *both("classify-profile-not-a-prime", "classify", "--passive", "nilpotent(p=4, s=[1])",
          "--active", "C_2"),
    *both("classify-profile-increasing", "classify", "--passive", "nilpotent(p=2, s=[1, 2])",
          "--active", "C_2"),
    *both("classify-profile-zero", "classify", "--passive", "nilpotent(p=2, s=[0])",
          "--active", "C_2"),
    *both("classify-profile-dl-zero", "classify", "--passive", "nilpotent(p=2, s=[1], dl=0)",
          "--active", "C_2"),
    # decide: every verdict and every hypothesis code
    *both("decide-d4-q8", "decide", *D4_Q8),
    *both("decide-equal", "decide", *pair("C_3", "C_3", "C_{3^2}^2", "C_{3^2}^2")),
    *both("decide-equal-infinite", "decide",
          *pair("C_2", "C_2", "C_{2^2}^3 * C_2^{aleph_0}", "C_{2^2}^3 * C_2^{aleph_1}")),
    *both("decide-infinite-unequal", "decide", *D4_Q8_INFINITE),
    *both("decide-multi-prime", "decide", *MULTI_PRIME),
    *both("decide-passive-not-p-group", "decide",
          *pair("C_2 * C_3", "C_2 * C_3", "C_2", "C_2")),
    *both("decide-passive-not-p-group-unequal", "decide",
          *pair("C_2 * C_3", "C_2 * C_3", "C_2", "C_2^2")),
    *both("decide-active-exponent-mismatch", "decide", *pair("C_2", "C_2", "C_2", "C_{2^2}")),
    *both("decide-trivial-actives", "decide", *pair("C_2", "C_2", "1", "1")),
    *both("decide-every-fatal-code", "decide", *pair("C_2", "C_3", "C_5", "C_{5^2}")),
    *both("decide-prime-not-dividing", "decide", *pair("C_2", "C_2", "C_3", "C_3")),
    *both("decide-not-asserted", "decide", *pair("C_2", "C_2^2", "C_2", "C_2")),
    *both("decide-asserted", "decide", *pair("C_2", "C_2^2", "C_2", "C_2"),
          "--assert-var-equal"),
    *both("decide-refuted-assertion", "decide", *pair("C_4 * C_2", "D4", "C_2", "C_2"),
          "--assert-var-equal"),
    *both("decide-refuted-solubility", "decide",
          *pair("C_3 * D4", "C_3 * C_4 * C_2", "C_2", "C_2"), "--assert-var-equal"),
    *both("decide-parse-error", "decide", *pair("C_2", "C_2", "C_{6}", "C_2")),
    # witness
    *both("witness-d4-q8", "witness", *D4_Q8, "--prime", "2"),
    *both("witness-infinite", "witness", *D4_Q8_INFINITE, "--prime", "2"),
    *both("witness-multi-prime", "witness", *MULTI_PRIME, "--prime", "7"),
    *both("witness-passive-not-p-group", "witness",
          *pair("C_2 * C_3", "C_2 * C_3", "C_2", "C_2^2"), "--prime", "2"),
    *both("witness-equivalent", "witness", *pair("C_3", "C_3", "C_{3^2}^2", "C_{3^2}^2"),
          "--prime", "3"),
    *both("witness-absent-prime", "witness", *D4_Q8, "--prime", "3"),
    *both("witness-not-a-prime", "witness", *D4_Q8, "--prime", "4"),
    *both("witness-active-exponent-mismatch", "witness",
          *pair("C_2", "C_2", "C_2", "C_{2^2}"), "--prime", "2"),
    *both("witness-fatal", "witness", *pair("C_2", "C_3", "C_5", "C_{5^2}"), "--prime", "5"),
    # oracle-verify: wreath products of at most 128 elements
    *both("oracle-all-match", "oracle-verify", "--manifest", MANIFEST, manifest=(
        "C_2 Wr C_2\nC_3 Wr C_3\nC_2 Wr C_{2^2}\nC_2 Wr C_2^2\n\n# a comment\n"
        "D4 Wr C_2\nQ8 wr C_2\nC_4 Wr C_2\nC_2^2 Wr C_2\n")),
    *both("oracle-every-skip", "oracle-verify", "--manifest", MANIFEST, manifest=(
        "C_2 Wr C_2^{aleph_0}\nnilpotent(p=2, s=[1]) Wr C_2\nC_2^{aleph_0} Wr C_2\n"
        "C_2^999999999 Wr C_2\nC_2 Wr C_2^999999999\nC_3 Wr C_{3^2}^2\n"
        + NON_NILPOTENT_LINES)),
    *both("oracle-verify-trivial-active", "oracle-verify", "--manifest", MANIFEST,
          manifest="C_2 Wr C_2\nC_2 Wr 1\nC_2 Wr C_2^0\n"),
    *both("oracle-budget", "oracle-verify", "--manifest", MANIFEST, "--budget", "100",
          manifest="C_2 Wr C_2\nD4 Wr C_2\nC_2 Wr C_2^7\nC_2^7 Wr C_2\n"),
    *both("oracle-budget-zero", "oracle-verify", "--manifest", MANIFEST, "--budget", "0",
          manifest="C_2 Wr C_2\n"),
    *both("oracle-bad-line", "oracle-verify", "--manifest", MANIFEST,
          manifest="C_2 Wr C_2\nC_2 C_2\n"),
    *both("oracle-parse-error", "oracle-verify", "--manifest", MANIFEST,
          manifest="C_2 Wr C_{6}\n"),
    *both("oracle-malformed-profile", "oracle-verify", "--manifest", MANIFEST,
          manifest="nilpotent(p=2, s=[1, 2]) Wr C_2\n"),
    *both("oracle-empty", "oracle-verify", "--manifest", MANIFEST, manifest="# nothing here\n"),
    *both("oracle-missing", "oracle-verify", "--manifest", "missing.txt"),
    ("demo", ["--demo"], None),
    # no verb: argparse's help varies across Python versions, so only its
    # first usage line is kept
    ("bare", [], None),
]


def _quoted(text: str) -> list[str]:
    lines = [f"| {line}" if line else "|" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("\\ no newline at end")
    return lines


def transcript(name, argv, manifest, code, out, err) -> str:
    if name == "bare":
        out = out.splitlines(keepends=True)[0]
    lines = [f"#### {name}", f"$ {shlex.join(['wreathvar', *argv])}"]
    if manifest is not None:
        lines += [f"{MANIFEST}:", *_quoted(manifest)]
    lines += [f"exit: {code}", "stdout:", *_quoted(out), "stderr:", *_quoted(err)]
    return "\n".join(lines) + "\n"


def run_case(argv, manifest) -> int:
    if manifest is not None:
        Path(MANIFEST).write_text(manifest, encoding="utf-8")
    return main(list(argv))


def load_golden() -> dict[str, str]:
    blocks: dict[str, str] = {}
    name = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("#### "):
            name = line[len("#### "):].rstrip("\n")
            blocks[name] = ""
        blocks[name] += line
    return blocks


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_has_one_block_per_case(golden):
    names = [name for name, _, _ in CASES]
    assert len(set(names)) == len(names)
    assert list(golden) == names


@pytest.mark.parametrize("name,argv,manifest", CASES, ids=[c[0] for c in CASES])
def test_cli_transcript(name, argv, manifest, golden, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.chdir(tmp_path)
    code = run_case(argv, manifest)
    captured = capsys.readouterr()
    assert transcript(name, argv, manifest, code, captured.out, captured.err) == golden[name]


def record() -> None:
    """Rewrite the golden file from the current code."""
    os.environ["COLUMNS"] = COLUMNS
    blocks = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv, manifest in CASES:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_case(argv, manifest)
                blocks.append(transcript(name, argv, manifest, code,
                                         out.getvalue(), err.getvalue()))
        finally:
            os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(blocks), encoding="utf-8")


if __name__ == "__main__":
    record()
