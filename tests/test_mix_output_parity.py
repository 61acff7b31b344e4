"""``mix`` on the dense route prints the same bytes, as JSON and as text,
as before the relation scan kept its relations in one int64 array.

``data/mix_output_parity.json`` maps each command line below to its exit
code and standard output, as printed by the commit before that change.
The graphs are those of the mix-srg and search-real benchmark workloads,
in both modes, from vertex 0 and with ``--simultaneous``. They are all
strongly regular or complete, so here the scheme route is switched off
and only the ``route`` key or line, which the frozen output predates, is
taken out before the bytes are compared. ``test_scheme_route.py`` runs the
same command lines on the scheme route.
"""

import json
import re
from pathlib import Path

import pytest

from arcwalk import mixing
from arcwalk.cli import main

FROZEN = json.loads((Path(__file__).parent / "data" / "mix_output_parity.json").read_text())
GRAPHS = ("k4", "hadamard-srg:1", "petersen", "rook:4", "hadamard-srg:2",
          "complement:rook:4", "rook:5", "rook:6", "rook:8")
#: the route as a JSON key (keys are sorted, and notes come before it) or a text line
ROUTE = re.compile(r', "route": "(\w+)"|^route: (\w+)\n', re.MULTILINE)


def mix_argvs():
    for name in GRAPHS:
        for mode in ("integer", "real"):
            for start in (["--vertex", "0"], ["--simultaneous"]):
                for fmt in (["--format", "json", "--emit-matrix"], ["--format", "text"]):
                    yield ["mix", "--builtin", name, "--mode", mode, "--epsilon", "0.1",
                           *start, *fmt]


def split_route(out: str) -> tuple[str, str]:
    """The route ``mix`` printed, and its output without it."""
    (found,) = ROUTE.finditer(out)
    return found.group(1) or found.group(2), out[: found.start()] + out[found.end():]


@pytest.mark.parametrize("argv", list(mix_argvs()), ids=" ".join)
def test_mix_output_matches_the_frozen_output(argv, capsys, monkeypatch):
    monkeypatch.setattr(mixing, "srg_decomposition", lambda g: None)
    frozen = FROZEN[" ".join(argv)]
    code = main(argv)
    route, out = split_route(capsys.readouterr().out)
    assert route == mixing.ROUTE_DENSE
    assert (code, out) == (frozen["code"], frozen["stdout"])
