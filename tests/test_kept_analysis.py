"""A sweep of ``mix`` queries on one builtin graph analyses the graph once.

``cli.resolve_builtin`` keeps one graph per normalized label, within
``cli.BUILTIN_BYTES``; the graph keeps its scheme record, and the record
keeps the certificates of the Hadamard search and the arc-type closed form.
Here a warm run prints what a cold run prints, a failed check keeps
nothing, the kept graphs stay within their byte budget, no dense-route
record outlives its call, and a warm run says at debug level what it
reused.
"""

import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from arcwalk import cli, mixing, spectra, walk
from arcwalk.cli import configure_logging, main, resolve_builtin
from arcwalk.spectra import srg_decomposition
from arcwalk.walk import WalkSpectrumError, check_type_closed_form
from test_closed_form import flipped_weights
from test_mix_output_parity import GRAPHS, mix_argvs

#: a debug record that says a stage reused what a graph or record kept
REUSE = re.compile(r"^DEBUG arcwalk\.\w+: reused ", re.MULTILINE)
LOUD = ["--log-level", "debug"]


def swept_argvs():
    """The command lines of ``test_scheme_route.py``, then real mode at
    epsilon 0.01 and integer mode at 1e-3 from two vertices and from all."""
    yield from mix_argvs()
    for name in GRAPHS:
        for mode, epsilon in (("real", "0.01"), ("integer", "1e-3")):
            for start in (["--vertex", "0"], ["--vertex", "1"], ["--simultaneous"]):
                yield ["mix", "--builtin", name, "--mode", mode, "--epsilon", epsilon, *start,
                       "--format", "json", "--emit-matrix"]


def run(argv, capsys):
    try:
        code = main(argv)
    finally:
        configure_logging("warning")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_warm_runs_print_what_cold_runs_print(capsys):
    """Every command line, quiet and at debug level, run twice in a seeded
    shuffled order in one process, gives the exit code, stdout and stderr
    of the same command line run with no graph kept; at debug level the
    stderr differs only by the reuse records, and a graph's second run has
    them."""
    argvs = [argv + loud for argv in swept_argvs() for loud in ([], LOUD)]
    cold = {}
    for argv in argvs:
        cli._builtins.clear()
        cold[" ".join(argv)] = run(argv, capsys)
    assert not any(REUSE.search(err) for _, _, err in cold.values())
    order = argvs * 2
    np.random.default_rng(34).shuffle(order)
    cli._builtins.clear()
    seen, reused = set(), 0
    for argv in order:
        code, out, err = run(argv, capsys)
        want_code, want_out, want_err = cold[" ".join(argv)]
        assert (code, out) == (want_code, want_out), argv
        lines = err.splitlines(keepends=True)
        assert "".join(line for line in lines if not REUSE.match(line)) == want_err, argv
        name = argv[2]
        if argv[-1] == "debug" and name in seen and '"route": "scheme"' in out + want_out:
            assert REUSE.search(err), argv
            reused += 1
        seen.add(name)
    assert reused > len(argvs) // 4


def test_a_warm_run_logs_one_record_for_each_reused_stage(capsys):
    argv = ["mix", "--builtin", "rook:4", "--epsilon", "0.1", *LOUD]
    cold = run(argv, capsys)[2]
    warm = run(argv, capsys)[2]
    assert not REUSE.search(cold)
    assert [line for line in warm.splitlines() if REUSE.match(line)] == [
        "DEBUG arcwalk.spectra: reused the scheme record of rook:4 kept on the graph",
        "DEBUG arcwalk.mixing: reused the certificates kept on the scheme record at "
        "tau_flat 1e-06",
        "DEBUG arcwalk.walk: reused the arc-type closed form kept on the scheme record",
    ]


def test_a_sweep_analyses_the_graph_once(monkeypatch):
    """Vertices, epsilons, modes and ``--simultaneous`` on one graph: the
    graph is built and its scheme record formed once, and a new
    ``--tau-flat`` searches the patterns once more."""
    calls = []
    for module, name in ((cli, "_build_builtin"), (spectra, "_srg_record"),
                         (mixing, "_scheme_patterns"), (walk, "_certified")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    for argv in (["--vertex", "3"], ["--simultaneous"], ["--epsilon", "0.05"],
                 ["--mode", "real", "--vertex", "5"], ["--epsilon", "1e-3", "--simultaneous"]):
        assert main(["mix", "--builtin", "Rook:4 ", *argv]) == 0
    assert calls == ["_build_builtin", "_srg_record", "_scheme_patterns", "_certified"]
    assert main(["mix", "--builtin", "rook:4", "--tau-flat", "1e-3"]) == 0
    assert calls[4:] == ["_scheme_patterns"]


def test_edge_files_are_read_afresh(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    argv = ["mix", "--edges", str(path), *LOUD]
    first, second = run(argv, capsys), run(argv, capsys)
    assert first == second and first[0] == 0 and not REUSE.search(second[2])
    assert not cli._builtins


def test_a_closed_form_that_fails_is_checked_again(monkeypatch):
    dec = srg_decomposition(resolve_builtin("rook:4"))
    with monkeypatch.context() as patch:
        patch.setattr(walk, "_class_weights", flipped_weights)
        for _ in range(2):
            with pytest.raises(WalkSpectrumError, match="eigen"):
                check_type_closed_form(dec)
            assert main(["mix", "--builtin", "rook:4", "--simultaneous"]) == 2
        assert dec.certified.get("type_closed_form") is None
    checked = check_type_closed_form(dec)
    assert dec.certified.get("type_closed_form") == checked and max(checked.values()) < 1e-12


def test_a_pattern_search_that_fails_is_run_again(monkeypatch):
    dec = srg_decomposition(resolve_builtin("rook:4"))
    size = dec.nbytes

    def refused(**fields):
        raise ValueError("certificate refused")

    with monkeypatch.context() as patch:
        patch.setattr(mixing, "HadamardCertificate", refused)
        for _ in range(2):
            with pytest.raises(ValueError, match="certificate refused"):
                mixing.hadamard_search(dec)
        assert dec.certified.get(("hadamard_search", mixing.TAU_FLAT)) is None and dec.nbytes == size
    (cert,) = mixing.hadamard_search(dec)
    kept = dec.certified.get(("hadamard_search", mixing.TAU_FLAT))
    assert kept.certificates == (cert,) and cert.pattern.label() == "+-+"
    assert dec.nbytes == size + kept.nbytes > size + cert.matrix.nbytes


def test_a_nan_tolerance_is_refused():
    dec = srg_decomposition(resolve_builtin("rook:4"))
    with pytest.raises(ValueError, match="tau_flat"):
        mixing.hadamard_search(dec, tau_flat=float("nan"))


def held(memo):
    return sum(map(cli._kept_bytes, memo.values()))


def test_the_builtin_memo_evicts_by_bytes(monkeypatch):
    """Under a 4,000-byte budget: rook:8's 32 KiB adjacency is never kept;
    rook:4, whose 2 KiB adjacency fits, is weighed anew at the next call
    once its record, certificate and closed form take it past the budget;
    the least recently used graphs go first until the rest fit."""
    monkeypatch.setattr(cli, "BUILTIN_BYTES", 4_000)
    assert resolve_builtin("rook:8") is not resolve_builtin("rook:8")
    assert not cli._builtins
    k4, rook4 = resolve_builtin("k4"), resolve_builtin("rook:4")
    assert resolve_builtin("k4") is k4 and list(cli._builtins) == ["rook:4", "k4"]
    assert held(cli._builtins) == 128 + 2048
    assert main(["mix", "--builtin", "rook:4", "--simultaneous"]) == 0
    assert cli._kept_bytes(rook4) > 4_000
    assert resolve_builtin("k4") is k4 and list(cli._builtins) == ["k4"]
    assert resolve_builtin("rook:4") is not rook4
    for label in ("complement:rook:4", "petersen", "hadamard-srg:2", "k4", "rook:4", "k5"):
        g = resolve_builtin(label)
        assert held(cli._builtins) <= 4_000 and next(reversed(cli._builtins)) == label
        main(["mix", "--builtin", label, "--vertex", "1"])
        assert resolve_builtin(label) is g or cli._kept_bytes(g) > 4_000
        assert held(cli._builtins) <= 4_000


@pytest.mark.parametrize("start", [["--vertex", "3"], ["--simultaneous"]])
def test_no_dense_record_outlives_its_call(start, monkeypatch):
    """With the scheme route switched off, as in ``test_mix_output_parity.py``,
    the record of eigh is gone once ``mix`` returns, and the kept graph
    holds no record."""
    records = []
    dense = mixing.eigendecompose_symmetric

    def recorded(g):
        dec = dense(g)
        records.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(mixing, "srg_decomposition", lambda g: None)
    monkeypatch.setattr(mixing, "eigendecompose_symmetric", recorded)
    for _ in range(2):
        assert main(["mix", "--builtin", "rook:4", "--format", "json", *start]) == 0
    gc.collect()
    assert len(records) == 2 and all(ref() is None for ref in records)
    assert resolve_builtin("rook:4").scheme_record is None


def test_importing_the_cli_loads_no_heavy_module():
    """``import arcwalk.cli`` in a fresh interpreter loads none of the test
    and optional dependencies, so set-up stays the import of numpy and the
    package."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                    os.environ.get("PYTHONPATH")])))
    code = ("import sys, arcwalk.cli; print(sorted({m.split('.')[0] for m in sys.modules} & "
            "{'scipy', 'networkx', 'sympy', 'mpmath', 'hypothesis'}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
