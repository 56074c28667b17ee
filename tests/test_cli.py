from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from spinz import exact_log_partition, ising_system, build_family_graph, save_system
from spinz.cli import build_parser, main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_triangle(tmp_path, coupling=0.2, field=0.1):
    path = tmp_path / "triangle.json"
    save_system(ising_system(build_family_graph("cycle", n=3), coupling, field), path)
    return str(path)


def test_render_json_seventeen_digits():
    text = render_json({"x": 0.1, "big": 12345.678901234567, "i": 3, "s": "a", "b": True})
    assert '"x": 0.10000000000000001' in text
    assert '"i": 3' in text
    assert '"b": true' in text
    # every float round-trips exactly
    assert json.loads(text)["big"] == 12345.678901234567


def test_render_json_nonfinite_floats():
    text = render_json({"a": math.inf, "b": -math.inf, "c": math.nan})
    data = json.loads(text)
    assert data == {"a": "inf", "b": "-inf", "c": "nan"}


def test_estimate_report_schema(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, err = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.05")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "schema_version", "command", "applicable", "log_z_hat", "eps",
        "log_weight_all_plus", "degree_bound", "max_coupling",
        "critical_coupling", "contraction", "truncation_depth",
        "total_nodes", "vertices",
    }
    assert report["schema_version"] == 1
    assert report["applicable"] is True
    assert set(report["vertices"][0]) == {"vertex", "depth", "node_count", "p_hat"}
    assert "wall_time_s=" in err
    # triangle with max degree 2: critical coupling is unbounded
    assert report["critical_coupling"] == "inf"


def test_estimate_accuracy_through_cli(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.01")
    report = json.loads(out)
    system = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    assert abs(report["log_z_hat"] - exact_log_partition(system)) <= 0.01


def test_estimate_runs_are_bit_identical(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    _, first, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.05")
    _, second, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.05")
    assert first == second


def test_estimate_defaults_to_one_thread():
    args = build_parser().parse_args(["estimate", "--graph", "g.json", "--eps", "0.1"])
    assert args.threads == 1


def test_estimate_thread_counts_agree(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    _, one, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.05",
                        "--threads", "1")
    _, four, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.05",
                         "--threads", "4")
    assert json.loads(one)["log_z_hat"] == json.loads(four)["log_z_hat"]
    assert one == four


def test_estimate_bad_eps_exit_1(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    for eps in ("0", "-0.1", "inf", "nan"):
        code, out, err = run_cli(capsys, "estimate", "--graph", graph, "--eps", eps)
        assert code == 1, eps
        assert out == ""
        assert "eps must be a positive finite number" in err


def test_estimate_inapplicable_exit_2(tmp_path, capsys):
    path = tmp_path / "hot.json"
    save_system(
        ising_system(build_family_graph("random_regular", n=10, degree=3, seed=1), 0.6),
        path,
    )
    code, out, _ = run_cli(capsys, "estimate", "--graph", str(path), "--eps", "0.1")
    assert code == 2
    report = json.loads(out)
    assert report["applicable"] is False
    assert report["contraction"] >= 1.0
    assert "log_z_hat" not in report


def test_check_reports_applicability(tmp_path, capsys):
    path = tmp_path / "hot.json"
    save_system(
        ising_system(build_family_graph("random_regular", n=10, degree=3, seed=1), 0.6),
        path,
    )
    code, out, _ = run_cli(capsys, "check", "--graph", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["applicable"] is False
    assert report["contraction"] == pytest.approx(1.0740991339960706, abs=1e-12)
    assert report["critical_coupling"] == pytest.approx(0.5493061443340549, abs=1e-12)

    cool = write_triangle(tmp_path)
    code, out, _ = run_cli(capsys, "check", "--graph", cool)
    assert code == 0
    assert json.loads(out)["applicable"] is True


def test_exact_matches_library(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, _ = run_cli(capsys, "exact", "--graph", graph)
    assert code == 0
    system = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    assert json.loads(out)["log_z"] == pytest.approx(exact_log_partition(system), abs=1e-14)


def test_exact_with_condition(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, _ = run_cli(capsys, "exact", "--graph", graph, "--cond", "1=+, 3=-")
    assert code == 0
    report = json.loads(out)
    assert report["condition"] == {"1": "+", "3": "-"}
    assert report["free_vertices"] == 1


def test_gen_then_exact_pipeline(tmp_path, capsys):
    out_path = tmp_path / "cycle3.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "3",
                           "--model", "ising", "--coupling", "0.3", "--field", "0.0",
                           "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["n"] == 3 and summary["edge_count"] == 3 and summary["connected"] is True

    code, out, _ = run_cli(capsys, "exact", "--graph", str(out_path))
    assert code == 0
    # hand enumeration over the 8 configurations of the Ising triangle:
    # 2 aligned states with weight e^{0.9}, 6 states with weight e^{-0.3}
    expected = math.log(2 * math.exp(3 * 0.3) + 6 * math.exp(-0.3))
    assert json.loads(out)["log_z"] == pytest.approx(expected, abs=1e-12)


def test_gen_rejects_bad_family(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "torus", "--n", "4",
                           "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "error:" in err


def test_verify_quick_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lipschitz", "--trials", "500")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["checks"][0]["name"] == "edge-factor-lipschitz"
    assert report["checks"][0]["trials"] == 500


def test_verify_failed_tolerance_exit_1(capsys):
    # an impossible tolerance forces a reported failure and exit code 1
    code, out, _ = run_cli(capsys, "verify", "--suite", "contraction",
                           "--trials", "200", "--tolerance", "-1.0")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_decay_command(tmp_path, capsys):
    path = tmp_path / "rr.json"
    save_system(
        ising_system(build_family_graph("random_regular", n=10, degree=3, seed=5), 0.4),
        path,
    )
    code, out, _ = run_cli(capsys, "decay", "--graph", str(path), "--root", "1",
                           "--radius", "2", "--trials", "15")
    assert code == 0
    report = json.loads(out)
    assert report["within_envelope"] is True
    assert 0.0 < report["measured_max"] <= report["envelope"]
    assert report["sphere_size"] > 0


def test_decay_empty_sphere_is_input_error(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, _, err = run_cli(capsys, "decay", "--graph", graph, "--root", "1",
                           "--radius", "5")
    assert code == 1 and "error:" in err


def test_sawtree_dump(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, err = run_cli(capsys, "sawtree", "--graph", graph, "--root", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 depth=0 free"
    assert "1 depth=3 +" in out and "1 depth=3 -" in out
    assert "nodes=7" in err


def test_sawtree_condition_and_depth(tmp_path, capsys):
    path = tmp_path / "path3.json"
    save_system(ising_system(build_family_graph("path", n=3), 0.3), path)
    code, out, _ = run_cli(capsys, "sawtree", "--graph", str(path), "--root", "1",
                           "--depth", "5", "--cond", "3=+")
    assert code == 0
    assert out.rstrip("\n").splitlines() == [
        "1 depth=0 free",
        "  2 depth=1 free",
        "    3 depth=2 +",
    ]


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "exact", "--graph", "/does/not/exist.json")
    assert code == 1 and "error:" in err


def test_bad_condition_string_exit_1(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    for cond in ("1", "1=x", "0=+", "1=+,1=-"):
        code, _, err = run_cli(capsys, "exact", "--graph", graph, "--cond", cond)
        assert code == 1, cond
        assert "error:" in err


def test_bad_arguments_exit_1(capsys):
    assert run_cli(capsys, "estimate")[0] == 1          # missing required flags
    assert run_cli(capsys, "nonsense")[0] == 1          # unknown subcommand
    assert run_cli(capsys)[0] == 1                      # no subcommand


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "estimate", "--help")[0] == 0


def test_module_entry_point(tmp_path):
    path = tmp_path / "p2.json"
    save_system(ising_system(build_family_graph("path", n=2), 0.3), path)
    proc = subprocess.run(
        [sys.executable, "-m", "spinz", "exact", "--graph", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["log_z"] == pytest.approx(1.430635131045831, abs=1e-12)
