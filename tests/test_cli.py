import importlib.util
import json
import logging
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from arcwalk import cli, mixing, spectra, walk
from arcwalk.cli import main, resolve_builtin
from arcwalk.graphs import graph_from_adjacency, write_edge_list

from conftest import GRAPH_BUILDERS, transition_matrix


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, _ = run_cli(["analyze", "--builtin", "rook:4"], capsys)
    assert code == 0
    assert "strongly regular" in out
    assert "[16, 6, 2, 2]" in out
    assert "unitarity" in out


def test_analyze_json_output(capsys):
    code, out, _ = run_cli(
        ["analyze", "--builtin", "petersen", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 10 and doc["k"] == 3
    np.testing.assert_allclose(doc["eigenvalues"], [3.0, 1.0, -2.0], atol=1e-12)
    assert doc["multiplicities"] == [1, 5, 4]
    assert doc["srg"] == [10, 3, 0, 1]
    assert doc["bipartite"] is False
    assert max(doc["residuals"].values()) < 1e-9


def test_analyze_cycle_reports_no_srg(capsys):
    code, out, _ = run_cli(
        ["analyze", "--builtin", "cycle:6", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["srg"] == "not SRG"
    assert doc["bipartite"] is True


def test_analyze_verifies_each_spectrum_once(monkeypatch, capsys):
    calls = Counter()
    targets = (
        (spectra, "decomposition_residuals"),
        (cli, "check_closed_form"),
        (cli, "eigenvalue_supports"),
        (walk, "walk_spectrum"),
        (walk, "walk_spectrum_residuals"),
        (spectra, "eigenvalue_support"),
    )
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(["analyze", "--builtin", "petersen", "--format", "json"], capsys)
    assert code == 0
    assert calls == {"decomposition_residuals": 1, "check_closed_form": 1, "eigenvalue_supports": 1}


def test_analyze_reports_both_suites(capsys):
    code, out, _ = run_cli(["analyze", "--builtin", "petersen", "--format", "json"], capsys)
    assert code == 0
    residuals = json.loads(out)["residuals"]
    g = resolve_builtin("petersen")
    dec = spectra.eigendecompose_symmetric(g)
    arcs = walk.build_arc_space(g)
    assert set(residuals) == {
        "adjacency_completeness", "adjacency_idempotency", "adjacency_orthogonality",
        "adjacency_reconstruction", "adjacency_e0_vs_uniform", "eigen", "start", "unitarity",
    }
    for key, value in dec.residuals.items():
        assert residuals[f"adjacency_{key}"] == value
    assert residuals["adjacency_completeness"] <= spectra.COMPLETENESS_TOL
    probes = walk.check_closed_form(dec, arcs, walk.probe_block(g.n))
    assert {key: residuals[key] for key in ("eigen", "start")} == probes
    # U = R C with R a permutation: the coin block gives max |U U^T - I|
    U = transition_matrix(arcs)
    assert residuals["unitarity"] == walk.coin_unitarity(3)
    assert residuals["unitarity"] == pytest.approx(np.abs(U @ U.T - np.eye(len(U))).max(), abs=1e-15)
    assert max(residuals.values()) <= walk.TAU_WALK


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--edges", "HUGE"],
        ["analyze", "--builtin", "cycle:100000000"],
        ["analyze", "--builtin", "kn:100000000"],
        ["evolve", "--builtin", "rook:100000"],
    ],
)
def test_oversized_graphs_exit_two_before_allocating(args, tmp_path, capsys):
    huge = tmp_path / "huge.edges"
    huge.write_text("100000000 0\n")
    code, out, err = run_cli([str(huge) if a == "HUGE" else a for a in args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_oversized_idempotent_stack_exits_two(tmp_path, capsys):
    """A random cubic graph of order 512 has 512 classes, an idempotent stack
    of 1 GiB, over the 512 MiB limit: refused after eigh, before the stack."""
    h = nx.random_regular_graph(3, 512, seed=1)
    assert nx.is_connected(h)
    path = tmp_path / "cubic-512.edges"
    path.write_text(write_edge_list(graph_from_adjacency(nx.to_numpy_array(h, dtype=np.int64))))
    code, out, err = run_cli(["analyze", "--edges", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: idempotents of 512 classes on 512 vertices need 1024 MiB, over the limit of 512 MiB\n"


def test_one_vertex_graph_exits_two_without_a_warning(tmp_path, capsys):
    path = tmp_path / "one.edges"
    path.write_text("1 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["analyze", "--edges", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: eigendecomposition requires valency at least 1\n"


@pytest.mark.parametrize("command", [["analyze"], ["evolve", "--t", "2.5"]], ids=["analyze", "evolve"])
def test_hadamard_srg_8_analyze_and_evolve_exit_zero(command, capsys):
    """m = 30720 arcs: the dense projections would take 86400 MiB."""
    code, out, _ = run_cli(
        [*command[:1], "--builtin", "hadamard-srg:8", "--format", "json", *command[1:]], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert max(doc["residuals"].values()) <= walk.TAU_WALK
    if command[0] == "evolve":
        assert len(doc["state"]) == 30720
        assert doc["entry_formula_agreement"] <= walk.TAU_WALK


def test_mix_success_exit_zero(capsys):
    code, out, _ = run_cli(
        [
            "mix",
            "--builtin",
            "rook:4",
            "--vertex",
            "0",
            "--epsilon",
            "0.1",
            "--mode",
            "integer",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "success"
    assert doc["t"] == 23.0
    assert doc["certificate"]["pattern"]["label"] == "+-+"


def test_mix_failure_exit_one(capsys):
    code, out, _ = run_cli(
        ["mix", "--builtin", "petersen", "--vertex", "0", "--epsilon", "0.1"],
        capsys,
    )
    assert code == 1
    assert "no-flat-target" in out


def test_mix_simultaneous(capsys):
    code, out, _ = run_cli(
        [
            "mix",
            "--builtin",
            "k4",
            "--simultaneous",
            "--epsilon",
            "1e-6",
            "--mode",
            "real",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "success" and doc["vertex"] is None


def test_mix_bipartite_rejected(capsys):
    code, _, err = run_cli(
        ["mix", "--builtin", "cycle:4", "--vertex", "0", "--epsilon", "0.1"],
        capsys,
    )
    assert code == 2
    assert "error:" in err and "bipartite" in err


def test_evolve_bipartite_half_time(capsys):
    code, out, _ = run_cli(
        [
            "evolve",
            "--builtin",
            "cycle:4",
            "--vertex",
            "0",
            "--t",
            "0.5",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["state"]) == 8
    assert all(len(pair) == 2 for pair in doc["state"])
    assert doc["imaginary_flatness_deficit"] < 1e-10
    assert doc["entry_formula_agreement"] < 1e-10
    # at the half step every imaginary part has modulus 1/(n sqrt(k))
    ims = [abs(im) for _, im in doc["state"]]
    np.testing.assert_allclose(ims, 1 / (4 * np.sqrt(2)), atol=1e-12)


def test_evolve_text_lists_largest_arcs(capsys):
    code, out, _ = run_cli(
        ["evolve", "--builtin", "k4", "--vertex", "1", "--t", "3"], capsys
    )
    assert code == 0
    assert "flatness deficit" in out
    assert "->" in out


def test_edge_file_input(tmp_path, capsys):
    path = tmp_path / "square.edges"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(
        ["analyze", "--edges", str(path), "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["bipartite"] is True


def test_malformed_edge_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3 2\n0 1\n1 oops\n")
    code, _, err = run_cli(["analyze", "--edges", str(path)], capsys)
    assert code == 2
    assert "bad.edges:3" in err


def test_missing_edge_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--edges", str(tmp_path / "absent.edges")], capsys
    )
    assert code == 2
    assert "error:" in err


def test_graph_source_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_graph_sources_are_exclusive(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("2 1\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--builtin", "k4", "--edges", str(path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evolve", "--t", "inf"),
        ("evolve", "--t", "nan"),
        ("mix", "--epsilon", "nan"),
        ("mix", "--epsilon", "inf"),
        ("mix", "--epsilon", "-0.1"),
        ("mix", "--t-max", "inf"),
        ("mix", "--t-max", "-1"),
        ("mix", "--tau-flat", "nan"),
        ("mix", "--tau-flat", "0"),
        ("mix", "--tau-rel", "inf"),
        ("mix", "--tau-rel", "-1e-9"),
        ("mix", "--budget", "-5"),
        ("mix", "--relation-bound", "0"),
    ],
)
def test_bad_numbers_exit_two(command, flag, value, capsys):
    code, out, err = run_cli([command, "--builtin", "k4", f"{flag}={value}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "spec, n, k",
    [
        ("kn:5", 5, 4),
        ("k5", 5, 4),
        ("c5", 5, 2),
        ("cycle:5", 5, 2),
        ("rook:3", 9, 4),
        ("petersen", 10, 3),
        ("hadamard-srg:1", 4, 3),
        ("hadamard-srg:2", 16, 6),
        ("hadamard-srg:4", 64, 36),
        ("hadamard-srg:8", 256, 120),
    ],
)
def test_builtin_catalogue(spec, n, k):
    g = resolve_builtin(spec)
    assert g.n == n and g.degree == k


def test_complement_builtin(capsys):
    g = resolve_builtin("complement:petersen")
    assert g.n == 10 and g.degree == 6
    code, out, _ = run_cli(
        ["analyze", "--builtin", "complement:petersen", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["srg"] == [10, 6, 3, 4]


def test_unknown_builtins_rejected(capsys):
    for spec in ("hadamard-srg:3", "hadamard-srg:32", "hadamard-srg:1024", "mystery", "rook:x", "kn:0"):
        code, _, err = run_cli(["analyze", "--builtin", spec], capsys)
        assert code == 2, spec
        assert "error:" in err


@pytest.mark.parametrize(
    "spec, simultaneous, t, residual_per_vertex",
    [
        ("hadamard-srg:4", False, 663.0, 0.00827),
        ("hadamard-srg:4", True, 663.0, 0.00827),
        ("hadamard-srg:8", False, 871.0, 0.00968),
        ("hadamard-srg:8", True, 871.0, 0.00968),
    ],
)
def test_mix_large_hadamard_srg_under_a_second(spec, simultaneous, t, residual_per_vertex, capsys):
    args = ["mix", "--builtin", spec, "--epsilon", "0.01", "--format", "json"]
    if simultaneous:
        args.append("--simultaneous")
    code, out, _ = run_cli(args, capsys)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "success"
    assert doc["t"] == t
    # the simultaneous residual is Frobenius over all n start vertices
    scale = np.sqrt(doc["certificate"]["order"]) if simultaneous else 1.0
    assert doc["residual"] / scale == pytest.approx(residual_per_vertex, abs=1e-5)
    assert doc["walk_residual"] <= 1e-9
    # time the certification alone; building the graph is not part of it
    g = resolve_builtin(spec)
    start = time.perf_counter()
    if simultaneous:
        mixing.simultaneous_mixing_check(g, 0.01, "integer")
    else:
        mixing.local_mixing_report(g, 0, 0.01, "integer")
    assert time.perf_counter() - start < 1.0


def test_mix_simultaneous_notes_non_square_order(capsys):
    code, out, _ = run_cli(
        ["mix", "--builtin", "petersen", "--simultaneous", "--format", "json"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "no-flat-target"
    assert (
        "order 10 is not 1 or an even square 4u^2, the orders of regular "
        "Hadamard matrices, so no flat sign combination can exist"
    ) in doc["notes"]
    assert doc["walk_residual"] is None


def edge_file(tmp_path, name, edges):
    n = 1 + max(max(e) for e in edges)
    path = tmp_path / f"{name}.edges"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


#: Cay(Z_2^4, S), x ~ x XOR s for s in S: 6-regular on 16 vertices, with
#: eigenvalues 6, 2, 0, -2, -4
CAYLEY_EDGES = sorted({(min(x, x ^ s), max(x, x ^ s))
                       for x in range(16) for s in (1, 2, 3, 5, 11, 15)})
#: a 4-regular graph on 7 vertices whose vertices have two supports
SPLIT_SUPPORT_EDGES = [tuple(map(int, e)) for e in
                       "03 04 05 06 13 14 15 16 23 24 25 26 36 45".split()]


@pytest.mark.parametrize("simultaneous", [False, True])
@pytest.mark.parametrize("mode, relations, violating", [
    ("real", [], (1, -2, 1, 0)),
    ("integer", [], (1, -2, 1, 0, 0)),
])
def test_mix_reports_a_phase_obstruction(tmp_path, mode, relations, violating, simultaneous,
                                         capsys):
    """On the Cayley graph the flat pattern +-++- exists, but
    theta_1 + theta_3 = pi (eigenvalues 2 and -2) and theta_2 = pi / 2
    (eigenvalue 0) give relations of odd parity: the walk cannot align at
    any precision, and mix exits 1 naming the relation. Each relation is
    checked exactly on those two identities, l_1 = l_3 and l_4 = 0 with
    l_1 + l_2 / 2 + 2 l_0 = 0, and its parity on the sign bits 1001."""
    path = edge_file(tmp_path, "cayley", CAYLEY_EDGES)
    code, out, _ = run_cli(["analyze", "--edges", path, "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0 and np.rint(doc["eigenvalues"]).tolist() == [6, 2, 0, -2, -4]
    code, out, _ = run_cli(["mix", "--edges", path, "--mode", mode]
                           + ["--simultaneous"] * simultaneous, capsys)
    lines = out.splitlines()
    assert code == 1 and lines[0].endswith("verdict phase-obstruction")
    assert "route: dense" in lines
    assert lines[3].startswith("certificate: order 16, pattern +-++-,")
    assert f"phase condition [{mode}]: violated up to bound 20" in lines
    assert [line for line in lines if line.startswith("  relation ")] == [
        f"  relation {r}" for r in relations]
    assert f"  violating relation {violating}" in lines
    for rel in relations + [violating]:
        l0 = rel[4] if mode == "integer" else 0
        assert rel[0] == rel[2] and rel[3] == 0
        assert Fraction(rel[0]) + Fraction(rel[1], 2) + 2 * l0 == 0
        assert (rel[0] + rel[3]) % 2 == (rel == violating)


@pytest.mark.parametrize("mode, relations, violating", [
    ("real", [], (1, -2, 1, 0)),
    ("integer", [(0, 4, 0, 0, -1)], (1, -18, 1, 0, 4)),
])
def test_scan_finds_the_first_odd_cayley_relation(mode, relations, violating):
    """mix decides the Cayley graph from a reduced basis of its relation
    lattice; the meet-in-the-middle scan of the same angles and sign bits
    1001 still reports every primitive relation before the lexicographically
    first odd one, and that one."""
    g = graph_from_adjacency(nx.to_numpy_array(nx.Graph(CAYLEY_EDGES), nodelist=range(16)))
    angles = np.array([float(a) for a in spectra.eigendecompose_symmetric(g).angles[1:]])
    verdict = mixing._relation_scan(angles, [1, 0, 0, 1], mode)
    assert verdict.status == "violated"
    assert list(map(tuple, verdict.relations.tolist())) == relations
    assert verdict.violating == violating


def test_split_supports_are_reported(tmp_path, capsys):
    """Vertices 0-2 have support [0, 2, 4] and 3-6 [0, 1, 3, 4]: analyze
    lists each vertex's support, a local mix names the classes outside it,
    and a simultaneous mix notes that the supports are not uniform."""
    path = edge_file(tmp_path, "split", SPLIT_SUPPORT_EDGES)
    code, out, _ = run_cli(["analyze", "--edges", path], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("support[")] == [
        f"support[{a}]: {[0, 2, 4] if a < 3 else [0, 1, 3, 4]}" for a in range(7)]
    code, out, _ = run_cli(["mix", "--edges", path, "--vertex", "4"], capsys)
    assert code == 1 and "verdict no-flat-target" in out
    assert ("note: classes [2] lie outside the support of vertex 4; their sign bits are "
            "unconstrained") in out.splitlines()
    code, out, _ = run_cli(["mix", "--edges", path, "--simultaneous"], capsys)
    assert code == 1 and ("note: per-vertex supports are not uniform: 0: [0, 2, 4], "
                          "1: [0, 2, 4], 2: [0, 2, 4], 3: [0, 1, 3, 4], 4: [0, 1, 3, 4], "
                          "5: [0, 1, 3, 4], 6: [0, 1, 3, 4]") in out.splitlines()


def test_evolve_text_on_a_bipartite_graph_reads_the_imaginary_flatness(capsys):
    code, out, _ = run_cli(["evolve", "--builtin", "cycle:8"], capsys)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "graph cycle:8: U^t x_0 at t=1.0"
    (line,) = [line for line in lines if line.startswith("imaginary flatness deficit:")]
    assert float(line.split()[-1]) < 1e-12


def load_expected():
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.py"
    spec = importlib.util.spec_from_file_location("bench_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mix_never_builds_the_dense_walk(monkeypatch, capsys):
    expected = load_expected()

    def refuse(*args, **kwargs):
        raise AssertionError("dense walk called on the mix path")

    for module in (walk, mixing, cli):
        for name in ("walk_spectrum", "evolve", "evolve_operator"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for spec in expected.FLAT + expected.NOT_FLAT:
        want, status = expected.mix_verdict(spec, "integer", 0.1)
        for extra in ([], ["--simultaneous"]):
            code, out, _ = run_cli(
                ["mix", "--builtin", spec, "--epsilon", "0.1", "--format", "json", *extra], capsys
            )
            doc = json.loads(out)
            assert doc["verdict"] == want, (spec, extra)
            if status is not None:
                assert doc["kronecker"]["status"] == status, (spec, extra)


def walk_graphs(tmp_path):
    """CLI sources for analyze and evolve: the curated graphs through
    --edges, cycle:8 and cycle:12 (bipartite), and random regular graphs
    of the benchmark's sizes through --edges."""
    graphs = {name: build() for name, build in GRAPH_BUILDERS.items()}
    for n, k in ((16, 3), (20, 4), (24, 3), (28, 4)):
        seed = 0
        while not nx.is_connected(h := nx.random_regular_graph(k, n, seed=seed)):
            seed += 1
        graphs[f"random-{n}-{k}"] = graph_from_adjacency(nx.to_numpy_array(h, dtype=np.int64))
    sources = {}
    for name, g in graphs.items():
        path = tmp_path / f"{name}.edges"
        path.write_text(write_edge_list(g))
        sources[name] = (["--edges", str(path)], g)
    for name in ("cycle:8", "cycle:12"):
        sources[name] = (["--builtin", name], resolve_builtin(name))
    return sources


EVOLVE_POINTS = ((0, 0.0), (1, 1.0), (2, 2.5), (3, 7.0), (1, 13.5))


def test_analyze_and_evolve_never_build_the_dense_walk(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense walk called on the analyze or evolve path")

    sources = walk_graphs(tmp_path)
    for module in (walk, mixing, cli):
        for name in ("walk_spectrum", "walk_spectrum_residuals", "evolve", "evolve_operator"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for name, (source, _) in sources.items():
        code, out, _ = run_cli(["analyze", *source, "--format", "json"], capsys)
        assert code == 0, name
        assert max(json.loads(out)["residuals"].values()) <= walk.TAU_WALK, name
        for a, t in EVOLVE_POINTS:
            code, out, _ = run_cli(
                ["evolve", *source, "--vertex", str(a), "--t", repr(t), "--format", "json"], capsys
            )
            doc = json.loads(out)
            assert code == 0, (name, a, t)
            assert max(doc["residuals"].values()) <= walk.TAU_WALK, (name, a, t)
            assert doc["entry_formula_agreement"] <= 1e-12, (name, a, t)


def test_evolve_state_matches_the_dense_oracle(tmp_path, capsys):
    for name, (source, g) in walk_graphs(tmp_path).items():
        dec, arcs = spectra.eigendecompose_symmetric(g), walk.build_arc_space(g)
        ws = walk.walk_spectrum(dec, arcs)
        for a, t in EVOLVE_POINTS:
            code, out, _ = run_cli(
                ["evolve", *source, "--vertex", str(a), "--t", repr(t), "--format", "json"], capsys
            )
            assert code == 0
            state = np.array([complex(re, im) for re, im in json.loads(out)["state"]])
            dense = walk.evolve(ws, walk.initial_state(arcs, a), t).amplitudes
            np.testing.assert_allclose(state, dense, rtol=0, atol=1e-12, err_msg=f"{name} {a} {t}")


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = Counter()
    original = cli.build_parser

    def counted():
        built["parser"] += 1
        return original()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for _ in range(3):
            assert run_cli(["analyze", "--builtin", "k4", "--format", "json"], capsys)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built["parser"] == 1


def test_json_output_renders_no_text(monkeypatch, capsys):
    rendered = []
    original = cli._emit

    def spy(payload, fmt, render):
        original(payload, fmt, lambda: rendered.append(payload) or render())

    monkeypatch.setattr(cli, "_emit", spy)
    for command in (["mix", "--emit-matrix"], ["analyze"], ["evolve"]):
        run_cli([command[0], "--builtin", "rook:4", "--format", "json", *command[1:]], capsys)
    assert rendered == []
    code, out, _ = run_cli(["mix", "--builtin", "k4", "--emit-matrix", "--epsilon", "0.1"], capsys)
    assert len(rendered) == 1 and code == 0
    assert "  -1 +1 +1 +1" in out.splitlines()


def test_log_notices_reach_stderr_at_info_only(tmp_path, capsys):
    """--log-level info writes the duplicate-edge and bound-reduction notices
    to stderr, once each however often main runs in one process; the default
    level writes neither."""
    path = tmp_path / "triangle.edges"
    path.write_text("3 4\n0 1\n1 2\n2 0\n0 1\n")
    analyze = ["analyze", "--edges", str(path), "--format", "json"]
    # past 2^52 no lattice certificate is tried, and the scan is cut to its cap
    mix = ["mix", "--builtin", "rook:4", "--relation-bound", str(2**53 + 1), "--format", "json"]
    for _ in range(2):
        code, _, err = run_cli([*analyze, "--log-level", "info"], capsys)
        assert code == 0
        assert err.splitlines() == ["INFO arcwalk.graphs: from_edge_list: collapsed 1 duplicate edge(s)"]
    code, _, err = run_cli([*mix, "--log-level", "info"], capsys)
    assert err.count(f"relation scan bound reduced {2**53 + 1} -> 1580") == 1
    code, _, err = run_cli(analyze, capsys)
    assert code == 0 and err == ""
    code, _, err = run_cli(mix, capsys)
    assert "INFO" not in err and "bound reduced" not in err
    log = logging.getLogger("arcwalk")
    assert sum(isinstance(h, cli._StderrHandler) for h in log.handlers) == 1
    assert log.level == logging.WARNING
