import json
import os
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from walkzeta import cli, exact, spectra
from walkzeta.cli import main
from walkzeta.exact import charpoly_exact
from walkzeta.operators import operator_matrix, transition_matrix
from walkzeta.spectra import SpectrumMultiset, compare, real_roots, roots
from walkzeta.experiments import (
    builtin_corpus,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
)

K2 = "A_"
C3 = "Bw"
K4 = "C~"


def graph6(g) -> str:
    """networkx's graph6 encoding of a simple graph."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_adjacency_k2(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--graph6", K2)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "charpoly"
    assert doc["settings"] == {}
    assert doc["target"] == "A"
    assert (doc["n"], doc["m"]) == (2, 1)
    assert doc["charpoly"] == ["-1", "0", "1"]
    assert "factored" not in doc


def test_charpoly_u_k4_factored(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--graph6", K4)
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == "U"
    assert doc["charpoly"] == charpoly_exact(transition_matrix(complete_graph(4))).to_strings()
    assert doc["factored"]["circle_exponent"] == 2
    assert len(doc["factored"]["walk_determinant"]) == 9


def test_charpoly_text_header(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--graph6", K2, "--target", "A",
                           "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "charpoly target=A n=2 m=1"
    assert "-1 + x^2" in out


@pytest.mark.parametrize("argv, settings, header", [
    (("charpoly", "--graph6", K2), {}, "charpoly target=U n=2 m=1"),
    (("spectrum", "--graph6", K2, "--tolerance", "1e-6"), {"tolerance": 1e-6},
     "spectrum target=U n=2 m=1 tolerance=1e-06"),
    (("zeta", "--graph6", C3, "--order", "5"), {"order": 5}, "zeta n=3 m=3 order=5"),
    (("verify", "--corpus", "smoke", "--trials", "0", "--seed", "7"), {"seed": 7},
     "verify corpus=smoke seed=7"),
    (("distinguish", "K4", "C4"), {}, "distinguish K4 vs C4"),
])
def test_settings_echo_only_the_options_the_command_reads(capsys, argv, settings, header):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["settings"] == settings
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("command, options", [
    ("charpoly", {"--target", "--graph6", "--input", "--format"}),
    ("spectrum", {"--target", "--graph6", "--input", "--tolerance", "--format"}),
    ("zeta", {"--graph6", "--input", "--order", "--oracle", "--format"}),
    ("verify", {"--corpus", "--trials", "--seed", "--format"}),
    ("distinguish", {"--format"}),
])
def test_help_lists_only_the_options_the_command_reads(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) == options | {"--help"}


@pytest.mark.parametrize("argv", [
    ("charpoly", "--graph6", K4, "--seed", "1"),
    ("charpoly", "--graph6", K4, "--tolerance", "1e-3"),
    ("charpoly", "--graph6", K4, "--order", "3"),
    ("spectrum", "--graph6", K4, "--order", "3"),
    ("spectrum", "--graph6", K4, "--seed", "1"),
    ("zeta", "--graph6", C3, "--tolerance", "1e-3"),
    ("zeta", "--graph6", C3, "--seed", "1"),
    ("zeta", "--graph6", C3, "--input-format", "graph6"),
    ("charpoly", "--graph6", K4, "--input-format", "graph6"),
    ("verify", "--corpus", "smoke", "--tolerance", "1e-3"),
    ("verify", "--corpus", "smoke", "--order", "3"),
    ("verify", "--graph6", K4),
    ("distinguish", "K4", "K4", "--order", "3"),
    ("distinguish", "K4", "K4", "--seed", "1"),
    ("distinguish", "K4", "K4", "--tolerance", "1e-3"),
    ("distinguish", "K4", "K4", "--target", "U"),
])
def test_options_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    # reported against the command, so the usage line shows what it takes
    assert err.startswith(f"usage: walkzeta {argv[0]} ")
    assert f"walkzeta {argv[0]}: error: unrecognized arguments: " in err


# 4-regular on 16 vertices: char(U) and char(U+) have square-free factors of degree 30 and 31
REGULAR_64_ARCS = "O@g@Cq_SAKGgD_?LhECKO"


@pytest.mark.parametrize(("g6", "arcs"), [(K4, 12), (REGULAR_64_ARCS, 64)], ids=["K4", "64-arcs"])
def test_spectrum_u_with_map(capsys, g6, arcs):
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", g6)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["spectrum"]) == arcs
    assert doc["mapped"] is not None
    assert doc["verdict"]["equal"] is True
    assert doc["verdict"]["max_pair_distance"] <= 1e-9
    assert doc["max_residual"] < 1e-8


@pytest.mark.parametrize(
    ("g6", "arcs"), [(graph6(petersen_graph()), 30), (REGULAR_64_ARCS, 64)], ids=["petersen", "64-arcs"]
)
def test_spectrum_support_map_on_regular(capsys, g6, arcs):
    code, out, _ = run_cli(capsys, "spectrum", "--target", "U+", "--graph6", g6)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["spectrum"]) == arcs
    assert doc["verdict"]["equal"] is True
    assert doc["verdict"]["max_pair_distance"] <= 1e-9


def test_spectrum_no_map_for_nonregular_support(capsys):
    # K2_3 is md2 but irregular: no closed-form map for the support target
    code, out, _ = run_cli(capsys, "spectrum", "--target", "U+", "--graph6",
                           graph6(complete_bipartite_graph(2, 3)))
    assert code == 0
    doc = json.loads(out)
    assert doc["mapped"] is None
    assert doc["verdict"] is None


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", K4, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,operator"
    assert len(lines) == 13
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 3
        float(parts[0]), float(parts[1])
        assert parts[2] == "U"


def test_spectrum_of_0x0_operator_is_empty(capsys):
    # an edgeless graph has no arcs: char(B - J0) is the constant 1, with no roots
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", "@", "--target", "B-J0")
    assert code == 0
    doc = json.loads(out)
    assert doc["charpoly"] == ["1"]
    assert doc["spectrum"] == [] and doc["max_residual"] == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_spectrum_map_disagreement_exit_3(capsys, fmt):
    # K4's mapped spectrum lies about 1e-16 from the computed one, past a 1e-300 tolerance
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", K4, "--tolerance", "1e-300", "--format", fmt)
    assert code == 3
    if fmt == "json":
        verdict = json.loads(out)["verdict"]
        assert verdict["equal"] is False and 0 < verdict["max_pair_distance"] < 1e-8
    elif fmt == "text":
        assert "closed-form map DISAGREES" in out
    else:
        assert out.startswith("re,im,operator\n") and len(out.splitlines()) == 13


def test_spectrum_text_counts_the_exact_copies(capsys, monkeypatch):
    # a multiple root is copies of one double, so two simple roots 1e-7 apart stay two lines
    values = (complex(-1), complex(-1), complex(1), complex(1 + 1e-7))
    monkeypatch.setattr(cli, "roots", lambda p: SpectrumMultiset(values))
    code, out, _ = run_cli(capsys, "spectrum", "--target", "A", "--graph6", K4, "--format", "text")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  -1.0000000000 +0.0000000000i  x2",
        "  +1.0000000000 +0.0000000000i  x1",
        "  +1.0000001000 +0.0000000000i  x1",
    ]


def test_k4_text_groups_the_fourfold_root(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", K4, "--format", "text")
    assert code == 0
    assert "  +1.0000000000 +0.0000000000i  x4" in out.splitlines()


def _recording(monkeypatch, name):
    """Replace walkzeta.cli's name by a wrapper that records each call's first argument."""
    seen, real = [], getattr(cli, name)

    def record(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, record)
    return seen


def test_spectrum_vertex_side_matches_the_exact_pipeline(capsys, monkeypatch, tmp_path):
    # the symmetric solver's T and A spectra against the roots of their exact charpolys
    walk = _recording(monkeypatch, "map_random_walk_spectrum")
    adjacency = _recording(monkeypatch, "map_adjacency_spectrum")
    checked = 0
    for entry in builtin_corpus():
        g = entry.graph
        path = tmp_path / f"{entry.name}.edges"
        path.write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        for target, vertex, seen, lift in (
            ("U", "T", walk, lambda eigs: spectra.map_random_walk_spectrum(eigs, g.m, g.n)),
            ("U+", "A", adjacency, lambda eigs: spectra.map_adjacency_spectrum(eigs, g.degrees[0], g.m, g.n)),
        ):
            seen.clear()
            code, out, _ = run_cli(capsys, "spectrum", "--target", target, "--input", str(path))
            doc = json.loads(out)
            assert (doc["verdict"] is None) == (not seen), (entry.name, target)
            if not seen:
                continue
            exact_eigs = real_roots(charpoly_exact(operator_matrix(g, vertex)))
            solver = SpectrumMultiset(tuple(complex(x) for x in seen[0]))
            assert compare(solver, SpectrumMultiset(tuple(map(complex, exact_eigs))), 1e-12).equal
            verdict = compare(roots(charpoly_exact(operator_matrix(g, target))), lift(exact_eigs))
            assert (code, doc["verdict"]["equal"]) == ((0, True) if verdict.equal else (3, False))
            checked += 1
    assert checked == 50  # 33 corpus graphs with m >= n, 17 connected, simple and k-regular, k >= 2


@pytest.mark.parametrize("target", ["U", "U+"])
@pytest.mark.parametrize("g6", [K4, REGULAR_64_ARCS], ids=["K4", "64-arcs"])
def test_spectrum_makes_one_charpoly_call(capsys, monkeypatch, g6, target):
    calls = _recording(monkeypatch, "charpoly_exact")
    code, out, _ = run_cli(capsys, "spectrum", "--target", target, "--graph6", g6)
    assert code == 0 and json.loads(out)["verdict"]["equal"] is True
    assert len(calls) == 1


def test_csv_rejected_outside_spectrum(capsys):
    # argparse refuses the choice, as for any option a command does not take
    for argv in (
        ("charpoly", "--graph6", K4),
        ("zeta", "--graph6", C3),
        ("verify", "--corpus", "smoke"),
        ("distinguish", "K4", "K4"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "csv" in captured.err, argv


def test_root_finding_failure_exit_5(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spectra.RootConvergenceError("Aberth did not converge in 400 iterations")

    monkeypatch.setattr(spectra, "_aberth", no_convergence)
    code, out, err = run_cli(capsys, "spectrum", "--graph6", K4)
    assert code == 5
    assert out == ""
    assert "error:" in err


def test_symmetric_solver_failure_exit_5(capsys, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, out, err = run_cli(capsys, "spectrum", "--graph6", K4)
    assert (code, out) == (5, "")
    assert err == "error: Eigenvalues did not converge\n"


def test_companion_eigenvalue_failure_exit_5(capsys, monkeypatch):
    # LinAlgError is a ValueError, which alone would read as bad input (exit 2)
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    code, out, err = run_cli(capsys, "spectrum", "--graph6", K4)
    assert (code, out) == (5, "")
    assert "companion-matrix eigenvalues failed" in err


def test_zeta_c3_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--graph6", C3, "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_form"] == ["1", "0", "0", "-2", "0", "0", "1"]
    assert doc["bass_form"]["denominator"] == ["1"]
    assert doc["forms_agree"] is True
    assert doc["series"] == ["1", "0", "0", "2", "0", "0", "3", "0", "0"]
    assert doc["oracle_series"] == doc["series"]
    assert doc["oracle_matches"] is True


def test_zeta_text_format(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--graph6", C3, "--format", "text",
                           "--order", "6")
    assert code == 0
    assert "forms agree: True" in out
    assert "series: 1 0 0 2 0 0 3" in out


def test_zeta_text_format_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--graph6", K4, "--order", "6", "--oracle",
                           "--format", "text")
    assert code == 0
    assert "oracle: 1 0 0 8 6 0 48" in out
    assert "oracle matches: True" in out


def test_zeta_oracle_size_guard_exit_4(capsys):
    big = graph6(cycle_graph(12))
    code, _, err = run_cli(capsys, "zeta", "--graph6", big, "--oracle")
    assert code == 4
    assert "error:" in err
    # without the oracle the same graph is fine
    code, _, _ = run_cli(capsys, "zeta", "--graph6", big)
    assert code == 0


def test_zeta_order_bound_exit_4(capsys):
    code, out, err = run_cli(capsys, "zeta", "--graph6", C3, "--order", "1001")
    assert (code, out) == (4, "")
    assert "1000" in err and "1001" in err
    code, out, _ = run_cli(capsys, "zeta", "--graph6", C3, "--order", "1000")
    assert code == 0
    assert len(json.loads(out)["series"]) == 1001


def test_running_out_of_primes_exit_4(capsys, monkeypatch):
    # below 2^2 the only odd prime is 3, which cannot exceed twice K3's bound
    monkeypatch.setattr(exact, "_power_sum_bits", lambda n: 2)
    code, out, err = run_cli(capsys, "charpoly", "--graph6", C3, "--target", "A")
    assert (code, out) == (4, "")
    assert "-bit bound" in err and "below 2^2" in err and "to 2 bits" in err
    assert len(err) < 300


@pytest.mark.parametrize("g6, order", [(K4, "13"), (graph6(cycle_graph(12)), "8")],
                         ids=["order", "rows"])
def test_zeta_oracle_limits_checked_before_series(capsys, monkeypatch, g6, order):
    def refuse(*args):
        raise AssertionError("series built before the oracle's guard")

    monkeypatch.setattr("walkzeta.cli.series_inverse", refuse)
    monkeypatch.setattr("walkzeta.cli.charpoly_exact", refuse)
    code, out, err = run_cli(capsys, "zeta", "--graph6", g6, "--order", order, "--oracle")
    assert (code, out) == (4, "")
    assert "cycle oracle limited to" in err


def test_verify_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "smoke", "--trials", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["corpus"] == "smoke"
    assert doc["report"]["passed"] is True
    assert doc["report"]["failed_checks"] == 0
    assert "elapsed" not in doc["report"]
    assert all("elapsed" not in c for c in doc["report"]["checks"])


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "smoke", "--trials", "1",
                           "--format", "text")
    assert code == 0
    assert "result: PASS" in out


def test_distinguish_named_graphs(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "K4", "C4")
    assert code == 0
    doc = json.loads(out)
    assert doc["left"] == "K4"
    assert doc["result"]["level"] == 0
    assert doc["result"]["level_name"] == "adjacency"


def test_distinguish_text_and_selfmatch(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "C5", "C5", "--format", "text")
    assert code == 0
    assert "indistinct" in out
    code, out, _ = run_cli(capsys, "distinguish", "K4", "C4", "--format", "text")
    assert "distinguished at level 0 (adjacency)" in out
    code, out, _ = run_cli(capsys, "distinguish", "petersen", "C5", "--format", "text")
    assert code == 0  # 10 against 5 vertices
    assert "distinguished at level 0 (adjacency)" in out


def test_distinguish_specs_file_and_literal(capsys, tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "distinguish", str(path), K4)
    assert code == 0
    assert json.loads(out)["result"]["level"] is None


def test_distinguish_hypothesis_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "distinguish", "P3", "C4")
    assert code == 2
    assert "regular" in err


def test_input_file_loading(capsys, tmp_path):
    edges = tmp_path / "path3.edges"
    edges.write_text("# a three-path\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--input", str(edges))
    assert code == 0
    assert json.loads(out)["n"] == 3

    g6 = tmp_path / "k4.g6"
    g6.write_text(K4 + "\n")
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--input", str(g6))
    assert code == 0
    assert json.loads(out)["m"] == 6



def test_file_format_comes_from_content(capsys, tmp_path):
    g6_in_txt = tmp_path / "k4.txt"
    g6_in_txt.write_text(K4 + "\n")
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--input", str(g6_in_txt))
    assert code == 0
    assert json.loads(out)["m"] == 6

    edges_in_g6 = tmp_path / "path3.g6"
    edges_in_g6.write_text("0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--input", str(edges_in_g6))
    assert code == 0
    assert (json.loads(out)["n"], json.loads(out)["m"]) == (3, 2)

    bare = tmp_path / "k4"
    bare.write_text(K4)
    code, out, _ = run_cli(capsys, "distinguish", str(bare), "K4", "--format", "text")
    assert code == 0
    assert "indistinct through support of U^3" in out


@pytest.mark.parametrize("text", [K4 + "\n", "n 4\n0 1\n1 2\n2 3\n3 0\n"], ids=["graph6", "edges"])
@pytest.mark.parametrize("argv", [("charpoly", "--input"), ("distinguish", "C4")], ids=["input", "spec"])
def test_graph_file_byte_order_mark_is_skipped(capsys, tmp_path, text, argv):
    path = tmp_path / "graph"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        code, out, _ = run_cli(capsys, *argv, str(path))
        assert code == 0, encoding
        outputs.append(out)
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


def test_bad_inputs_exit_2(capsys, tmp_path):
    cases = [
        ("charpoly",),  # no input source at all
        ("charpoly", "--graph6", K4, "--input", "x"),  # both sources
        ("charpoly", "--graph6", ")"),  # byte below the graph6 range
        ("charpoly", "--input", str(tmp_path / "missing.edges")),
        ("spectrum", "--graph6", K4, "--tolerance", "0"),
        ("spectrum", "--graph6", K4, "--tolerance", "nan"),
        ("spectrum", "--graph6", K4, "--tolerance", "inf"),
        ("zeta", "--graph6", C3, "--order", "0"),
        ("distinguish", "nosuchname", "K4"),
        ("verify", "--corpus", "smoke", "--trials", "-3"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


@pytest.mark.parametrize("argv, text, rows", [
    (("charpoly", "--target", "A", "--input"), "0 100000000000\n", 200000000002),
    (("spectrum", "--input"), "n 100000000000\n0 1\n", 200000000000),
    (("zeta", "--input"), "0 1\n" * 2049, 4098),
    (("distinguish", "K5"), "0 1\n" * 2049, 4098),
    (("distinguish", "K100000", "K5"), None, 99999 * 100000),
    # graph6 of the edgeless graph on 2049 vertices: '~' and an 18-bit size, then 2049 * 2048 / 2 zero bits
    (("zeta", "--input"), "~?_@" + "?" * 349696, 4098),
], ids=["huge-label", "huge-n", "parallel-edges", "distinguish-file", "distinguish-name", "graph6-2049"])
def test_size_guard_refuses_big_graphs_before_building_them(capsys, tmp_path, argv, text, rows):
    if text is not None:
        path = tmp_path / "big.edges"
        path.write_text(text)
        argv = (*argv, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert f"graph needs {rows} matrix rows; the size guard allows 4096" in err


def test_size_guard_admits_4096_rows(capsys, tmp_path):
    path = tmp_path / "parallel.edges"
    path.write_text("0 1\n" * 2048)
    code, out, _ = run_cli(capsys, "charpoly", "--target", "A", "--input", str(path))
    assert code == 0
    assert json.loads(out)["charpoly"] == ["-4194304", "0", "1"]


@pytest.mark.parametrize("spec, reason", [
    ("/nonexistent", "graph6 byte '/' out of range"),
    ("C2", "graph6 byte '2' out of range"),
])
def test_distinguish_names_what_a_bad_spec_is_not(capsys, spec, reason):
    code, out, err = run_cli(capsys, "distinguish", "shrikhande", spec)
    assert (code, out) == (2, "")
    assert err == f"error: {spec!r} is not a built-in graph name, an existing file or a graph6 string ({reason})\n"


def test_json_outputs_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "zeta", "--graph6", C3, "--oracle")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--corpus", "smoke", "--trials", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "spectrum", "--graph6", REGULAR_64_ARCS)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_module_entry_point():
    # the subprocess sees this checkout's src whether or not walkzeta is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "walkzeta.cli", "zeta", "--graph6", C3],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["forms_agree"] is True


def test_closed_stdout_ends_quietly_with_its_own_exit_code(tmp_path):
    # K12 to order 1000 writes about 516 KB; the reader takes 10 bytes and closes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "walkzeta.cli", "zeta", "--graph6", "K~~~~~~~~~~~", "--order", "1000"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert cli.EXIT_PIPE == 141
    assert head == b'{\n  "comma' and err == b""
    # any other OSError is still bad input
    missing = subprocess.run([*command[:3], "charpoly", "--input", str(tmp_path / "missing.edges")],
                             capture_output=True, text=True, env=env)
    assert missing.returncode == 2 and missing.stderr.startswith("error: [Errno 2] No such file")
