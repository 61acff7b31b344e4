"""``mix`` prints the same bytes, as JSON and as text, as before the relation
scan kept its relations in one int64 array.

``data/mix_output_parity.json`` maps each command line below to its exit
code and standard output, as printed by the commit before that change.
The graphs are those of the mix-srg and search-real benchmark workloads,
in both modes, from vertex 0 and with ``--simultaneous``.
"""

import json
from pathlib import Path

import pytest

from arcwalk.cli import main

FROZEN = json.loads((Path(__file__).parent / "data" / "mix_output_parity.json").read_text())
GRAPHS = ("k4", "hadamard-srg:1", "petersen", "rook:4", "hadamard-srg:2",
          "complement:rook:4", "rook:5", "rook:6", "rook:8")


def mix_argvs():
    for name in GRAPHS:
        for mode in ("integer", "real"):
            for start in (["--vertex", "0"], ["--simultaneous"]):
                for fmt in (["--format", "json", "--emit-matrix"], ["--format", "text"]):
                    yield ["mix", "--builtin", name, "--mode", mode, "--epsilon", "0.1",
                           *start, *fmt]


@pytest.mark.parametrize("argv", list(mix_argvs()), ids=" ".join)
def test_mix_output_matches_the_frozen_output(argv, capsys):
    frozen = FROZEN[" ".join(argv)]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (frozen["code"], frozen["stdout"])
