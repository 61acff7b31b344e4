"""Verdicts of arcwalk, as it was when this benchmark was written, on the
benchmark's fixed inputs.

Recorded by running every (graph, mode, epsilon) combination of the
``mix`` operations below, local and simultaneous, from several start
vertices; the verdict never depended on the vertex. The checker allows a
relation status to move from ``inconclusive`` to a definite status and a
verdict to move from ``budget-exhausted`` to a success that re-verifies.

The relation-status entries for the cycle angles follow from exact
arithmetic (see ``check.lattice_parity_holds``): a violation is always
found, and a clean scan says ``holds`` only where the enumeration cap of
5,000,000 vectors leaves the requested bound 20 intact, which is d = 4.
"""

#: graphs whose mix verdict is success with relation status holds
FLAT = ("k4", "hadamard-srg:1", "rook:4", "hadamard-srg:2", "complement:rook:4")
#: graphs with no flat target: the Hadamard search finds no sign pattern
NOT_FLAT = ("petersen", "rook:5", "rook:6", "rook:8")


def mix_verdict(graph: str, mode: str, epsilon: float) -> tuple[str, str | None]:
    """(verdict, relation status) of ``mix`` at the default budget 10^6."""
    if graph in NOT_FLAT:
        return ("no-flat-target", None)
    if graph == "complement:rook:4" and mode == "integer" and epsilon < 0.01:
        # the first epsilon-aligned integer time lies beyond the budget
        return ("budget-exhausted", "holds")
    return ("success", "holds")


#: relation status of a clean scan (no violation) over cycle:c angles
CLEAN_SCAN = {9: "holds", 13: "inconclusive", 17: "inconclusive"}
