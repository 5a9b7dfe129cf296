"""Standard input as a source: ``-`` for an expression or a manifest reads
it as a file is read, a leading byte order mark included."""

import io
import sys
from pathlib import Path

import pytest

from wreathvar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_byte_order_mark_on_standard_input_is_dropped(capsys, monkeypatch, flags):
    outputs = []
    for text in ("C_4 * C_2\n", "\ufeffC_4 * C_2\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        outputs.append(run(capsys, "parse", *flags, "-"))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("flags", [(), ("--json",)])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_oracle_verify_reads_a_manifest_from_standard_input(capsys, tmp_path, monkeypatch,
                                                             flags, bom):
    # as the same file prints, with "-" for its name; a line number counts
    # blank and comment lines, and the third line of the second manifest
    # is refused
    monkeypatch.chdir(tmp_path)
    for text, code in (("C_2 Wr C_2\n\n# a comment\nC_2 Wr 1\nC_2 Wr C_3\n", 0),
                       ("C_2 Wr C_2\n\nC_2 Wr C_6\n", 2)):
        Path("manifest.txt").write_text(text, encoding="utf-8")
        want = run(capsys, "oracle-verify", *flags, "--manifest", "manifest.txt")
        monkeypatch.setattr(sys, "stdin", io.StringIO(bom + text))
        got = run(capsys, "oracle-verify", *flags, "--manifest", "-")
        assert want[0] == code
        assert got == (code, *(out.replace("manifest.txt", "-") for out in want[1:]))
