import importlib.util
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from arcwalk import cli, mixing, spectra, walk
from arcwalk.cli import main, resolve_builtin


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
        (walk, "walk_spectrum_residuals"),
        (walk, "transition_matrix"),
        (spectra, "decomposition_residuals"),
    )
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(["analyze", "--builtin", "petersen", "--format", "json"], capsys)
    assert code == 0
    assert calls == {name: 1 for _, name in targets}


def test_analyze_reports_both_suites(capsys):
    code, out, _ = run_cli(["analyze", "--builtin", "petersen", "--format", "json"], capsys)
    assert code == 0
    residuals = json.loads(out)["residuals"]
    adjacency = spectra.eigendecompose_symmetric(resolve_builtin("petersen")).residuals
    assert set(residuals) == {
        "completeness", "idempotency", "orthogonality", "reconstruction", "e0_vs_uniform",
        "hermiticity", "resolution", "correspondence", "unitarity",
        "adjacency_completeness", "adjacency_idempotency", "adjacency_orthogonality",
    }
    for key in ("completeness", "idempotency", "orthogonality"):
        assert residuals[f"adjacency_{key}"] == adjacency[key]
    assert residuals["reconstruction"] == adjacency["reconstruction"]
    assert residuals["adjacency_completeness"] <= spectra.COMPLETENESS_TOL


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--edges", "HUGE"],
        ["analyze", "--builtin", "cycle:100000000"],
        ["analyze", "--builtin", "kn:100000000"],
        ["evolve", "--builtin", "rook:100000"],
        ["analyze", "--builtin", "hadamard-srg:8"],
        ["evolve", "--builtin", "hadamard-srg:8"],
    ],
)
def test_oversized_graphs_exit_two_before_allocating(args, tmp_path, capsys):
    huge = tmp_path / "huge.edges"
    huge.write_text("100000000 0\n")
    code, out, err = run_cli([str(huge) if a == "HUGE" else a for a in args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
    assert "order 10 is not a perfect square, so no flat sign combination can exist" in doc["notes"]
    assert doc["walk_residual"] is None


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
        for name in ("walk_spectrum", "transition_matrix", "evolve", "evolve_operator"):
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
