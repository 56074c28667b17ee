from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinz import (
    GenSpec,
    Graph,
    Spin,
    SpinSystem,
    VertexField,
    build_family_graph,
    build_saw_tree,
    exact_log_partition,
    generate,
    ising_system,
    load_system,
    measure_decay,
    save_system,
    serialize_system,
)
from spinz.cli import main, render_json

from .helpers import again_instance, identity_document, reversed_document


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
    with pytest.raises(TypeError, match="^cannot render set as JSON$"):
        render_json({"a": {1}})


def test_render_json_pins_every_token_type():
    # The text json.dumps gives each scalar: IntEnum spins as their numbers,
    # not their "+"/"-" str(); non-str keys through str().
    payload = {
        "true": True, "false": False, "none": None, "text": 'say "hi"\\é\n',
        "spin": Spin.MINUS, "int": -7, "big": 2**70, "float": 0.1,
        "empty_dict": {}, "empty_list": [], "empty_tuple": (),
        "nonfinite": [math.inf, -math.inf, math.nan],
        "nested": {"row": (Spin.PLUS, 3, {"leaf": None})},
        3: "int key", Spin.PLUS: "spin key",
    }
    assert render_json(payload) == "\n".join([
        "{",
        '  "true": true,',
        '  "false": false,',
        '  "none": null,',
        '  "text": "say \\"hi\\"\\\\\\u00e9\\n",',
        '  "spin": -1,',
        '  "int": -7,',
        '  "big": 1180591620717411303424,',
        '  "float": 0.10000000000000001,',
        '  "empty_dict": {},',
        '  "empty_list": [],',
        '  "empty_tuple": [],',
        '  "nonfinite": [',
        '    "inf",',
        '    "-inf",',
        '    "nan"',
        "  ],",
        '  "nested": {',
        '    "row": [',
        "      1,",
        "      3,",
        "      {",
        '        "leaf": null',
        "      }",
        "    ]",
        "  },",
        '  "3": "int key",',
        '  "+": "spin key"',
        "}",
        "",
    ])


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
    # The work bookkeeping goes to stderr: this triangle sweeps twice, and
    # the walked nodes count both sweeps, not only the reported one.
    assert report["total_nodes"] == 12
    assert re.fullmatch(r"wall_time_s=\d+\.\d{6} sweeps=2 walked_nodes=21\n", err), err
    # triangle with max degree 2: critical coupling is unbounded
    assert report["critical_coupling"] == "inf"


def test_estimate_accuracy_through_cli(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, _ = run_cli(capsys, "estimate", "--graph", graph, "--eps", "0.01")
    report = json.loads(out)
    system = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    assert abs(report["log_z_hat"] - exact_log_partition(system)) <= 0.01


def test_estimate_runs_are_bit_identical(tmp_path, capsys):
    # The triangle, and a random-table instance whose estimate sweeps twice,
    # each run twice; and the CI identity grid, listed rows first, against
    # the same system listed in reverse with some edges written (v, u).  Its
    # exact report pins vertices 1..14, or brute force would refuse it.
    triangle, again = write_triangle(tmp_path), tmp_path / "again.json"
    save_system(again_instance(), again)
    rows, rewritten = tmp_path / "rows.json", tmp_path / "reversed.json"
    rows.write_text(identity_document())
    rewritten.write_text(reversed_document(identity_document()))
    pins = ",".join(f"{v}=+" for v in range(1, 15))
    runs = (
        (triangle, triangle, ("estimate", "--eps", "0.05")),
        (again, again, ("estimate", "--eps", "0.1")),
        (rows, rewritten, ("estimate", "--eps", "0.1")),
        (rows, rewritten, ("exact", "--cond", pins)),
    )
    for one, other, argv in runs:
        code, first, _ = run_cli(capsys, *argv, "--graph", str(one))
        _, second, _ = run_cli(capsys, *argv, "--graph", str(other))
        assert code == 0 and first == second


def test_readme_estimate_example_prints_its_report(tmp_path, capsys, monkeypatch):
    # The README's first command block, run line by line in an empty
    # directory, prints the JSON block that follows it, byte for byte.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(spinz gen .*?)```\n\n```json\n(.*?)```", readme, re.S)
    commands, report = block.groups()
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        program, *argv = line.split()
        assert program == "spinz"
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert argv[0] == "estimate" and out == report


def test_estimate_bad_eps_exit_1(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    for eps in ("0", "-0.1", "inf", "nan"):
        code, out, err = run_cli(capsys, "estimate", "--graph", graph, "--eps", eps)
        assert code == 1, eps
        assert out == ""
        assert "eps must be a positive finite number" in err
    code, out, err = run_cli(capsys, "estimate", "--graph", graph, "--eps", "1e-320")
    assert (code, out) == (1, "")
    assert err.startswith("error: eps=1e-320 is too small")


def test_estimate_underflowing_marginal_exit_0(tmp_path, capsys):
    # The one marginal is exp(-800), 0 as a float; log Z is still 400.
    path = tmp_path / "extreme.json"
    save_system(SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(-400.0, 400.0)}), path)
    code, out, err = run_cli(capsys, "estimate", "--graph", str(path), "--eps", "0.1")
    assert code == 0, err
    report = json.loads(out)
    assert abs(report["log_z_hat"] - 400.0) <= 1e-9
    assert report["vertices"][0]["p_hat"] == 0.0
    # The frontier half-range a, and with it n * degree * a / eps,
    # underflows to 0 in the depth formula.
    graph = write_triangle(tmp_path, coupling=1e-300)
    code, out, err = run_cli(capsys, "estimate", "--graph", graph, "--eps", "1e300")
    assert code == 0, err
    assert json.loads(out)["truncation_depth"] == 1


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


@pytest.mark.parametrize("command,args", [("estimate", ["--eps", "0.1"]), ("check", [])])
def test_degree_bound_option_is_refused(tmp_path, capsys, command, args):
    # Every estimate takes d from the graph's maximum degree.
    graph = write_triangle(tmp_path)
    code, out, err = run_cli(capsys, command, "--graph", graph, *args, "--degree-bound", "3")
    assert (code, out) == (1, "")
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


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
    # an empty term between commas is skipped
    for cond in ("1=+, 3=-", "1=+,,3=-"):
        code, out, _ = run_cli(capsys, "exact", "--graph", graph, "--cond", cond)
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


def test_gen_refuses_a_size_above_the_maximum(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, err = run_cli(capsys, "gen", "--family", "path", "--n", "99999999999999999999999",
                             "--out", str(path))
    assert (code, out, err) == (1, "", "error: n must be at most 1000000, got 99999999999999999999999\n")
    assert not path.exists()


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


def test_verify_without_overrides_takes_the_checks_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lipschitz")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert (check["trials"], check["tolerance"]) == (10_000, 1e-12)


# The tolerance each check fixes and reports.
TOLERANCES = {
    "contraction-inequality": 1e-12,
    "edge-factor-lipschitz": 1e-12,
    "saw-marginal-identity-exhaustive": 1e-9,
    "saw-marginal-identity-random": 1e-9,
    "boundary-decay-bound": 1e-9,
    "boundary-decay-geometric": 0.0,
    "telescoping-product": 1e-9,
}
# The checks each verify suite reports, in order.
SUITE_CHECKS = {
    "contraction": ["contraction-inequality"],
    "lipschitz": ["edge-factor-lipschitz"],
    "saw-exhaustive": ["saw-marginal-identity-exhaustive"],
    "saw-random": ["saw-marginal-identity-random"],
    "decay": (["boundary-decay-bound"] * 3 + ["boundary-decay-geometric"]) * 3,
    "telescoping": ["telescoping-product"],
}


@pytest.mark.parametrize("suite", [*SUITE_CHECKS, "all"])
def test_verify_each_suite(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--trials", "2")
    assert code == 0
    report = json.loads(out)
    suites = list(SUITE_CHECKS) if suite == "all" else [suite]
    assert report["suites"] == suites and report["all_passed"] is True
    assert [check["name"] for check in report["checks"]] == [
        name for each in suites for name in SUITE_CHECKS[each]
    ]
    assert all(check["tolerance"] == TOLERANCES[check["name"]] for check in report["checks"])


def test_verify_decay_one_trial_ends_in_a_report(capsys):
    # One trial per radius measures a maximum of 0 at radius 1 of the second
    # graph; the geometric check skips the ratio after it instead of
    # dividing by 0.  Other one-pair ratios may fail the check (exit 1).
    code, out, err = run_cli(capsys, "verify", "--suite", "decay", "--trials", "1")
    report = json.loads(out)
    assert (code, err) == (0 if report["all_passed"] else 1, "")
    checks = report["checks"]
    assert [check["name"] for check in checks] == SUITE_CHECKS["decay"]
    assert "radius=1 measured=0.000000e+00" in checks[4]["worst_case"]
    assert "worst_ratio=0.901202" in checks[7]["worst_case"]


def test_verify_failed_check_exit_1(capsys, monkeypatch):
    # A check whose worst violation exceeds its tolerance fails the run,
    # which still prints every report.
    from spinz import oracle

    def failing(seed, instances=50):
        return oracle.CheckReport("telescoping-product", instances, 1.0, 1e-9, False, f"seed={seed}")

    monkeypatch.setattr(oracle, "check_telescoping", failing)
    code, out, err = run_cli(capsys, "verify", "--suite", "telescoping", "--trials", "3")
    report = json.loads(out)
    assert (code, err, report["all_passed"]) == (1, "", False)
    assert report["checks"] == [failing(0, 3).to_dict()]


@pytest.mark.parametrize("tolerance", ["0", "inf", "nan", "-1.0", "1e400", "tight"])
def test_verify_takes_no_tolerance(capsys, tolerance):
    # Each check fixes its tolerance; the option that overrode it is gone,
    # so every value it once took or refused is now an unknown argument.
    code, out, err = run_cli(capsys, "verify", "--suite", "telescoping", "--tolerance", tolerance)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: unrecognized arguments: --tolerance {tolerance}"
    ]


def test_verify_decay_geometric_ratio_skips_rounding_noise(capsys):
    # One trial measures 4.4e-16 at radius 2 of the first graph, within the
    # suite's tolerance of 0; the ratio after it was once 1.4e15.
    code, out, _ = run_cli(capsys, "verify", "--suite", "decay", "--trials", "1")
    checks = json.loads(out)["checks"]
    assert "radius=2 measured=4.440892e-16" in checks[1]["worst_case"]
    ratios = [float(check["worst_case"].split("worst_ratio=")[1].split()[0])
              for check in checks if check["name"] == "boundary-decay-geometric"]
    assert len(ratios) == 3 and max(ratios) < 1e3


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


def test_decay_at_zero_coupling_takes_the_check_verdict(tmp_path, capsys):
    # The envelope is 0 and the measured gap is rounding, 1.8e-15: the
    # verdict is measure_decay's, which allows 1e-12 at envelope 0.
    path = str(tmp_path / "g.json")
    code, _, _ = run_cli(capsys, "gen", "--family", "grid", "--rows", "3", "--cols", "4",
                         "--model", "ising", "--coupling", "0.0", "--field", "0.7",
                         "--out", path)
    assert code == 0
    code, out, _ = run_cli(capsys, "decay", "--graph", path, "--root", "1",
                           "--radius", "2", "--trials", "30")
    assert code == 0
    report = json.loads(out)
    assert report["envelope"] == 0.0 and 0.0 < report["measured_max"] <= 1e-12
    assert report["within_envelope"] is True
    assert measure_decay(load_system(path), 1, 2, trials=30)[3].passed


def test_decay_empty_sphere_is_input_error(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, _, err = run_cli(capsys, "decay", "--graph", graph, "--root", "1",
                           "--radius", "5")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("command,trials", [
    ("decay", "0"),   # drew no pairs and reported within_envelope: true
    ("decay", "-3"),  # failed inside NumPy
    ("verify", "0"),  # ran the suite's default count
])
def test_nonpositive_trials_exit_1(tmp_path, capsys, command, trials):
    args = ["--suite", "lipschitz"]
    if command == "decay":
        args = ["--graph", write_triangle(tmp_path), "--root", "1", "--radius", "1"]
    code, out, err = run_cli(capsys, command, *args, "--trials", trials)
    assert (code, out) == (1, "")
    assert f"argument --trials: expected a positive integer, got '{trials}'" in err


def test_sawtree_dump(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    code, out, err = run_cli(capsys, "sawtree", "--graph", graph, "--root", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 depth=0 free"
    assert "1 depth=3 +" in out and "1 depth=3 -" in out
    assert "nodes=7" in err


def test_sawtree_without_depth_prints_the_complete_tree(tmp_path, capsys):
    # A degree-3 graph, where the default split tree stops branches early:
    # without --depth the dump is the complete tree, with no frontier leaf.
    system = generate(GenSpec(family="random_regular", n=10, degree=3, coupling=0.3, seed=5))
    path = tmp_path / "rr.json"
    save_system(system, path)
    code, out, err = run_cli(capsys, "sawtree", "--graph", str(path), "--root", "1")
    assert code == 0
    assert "frontier" not in out
    complete = build_saw_tree(system, 1, system.graph.n, uniform=True)
    assert err == f"nodes={complete.node_count}\n"
    assert complete.node_count == len(out.splitlines())
    assert build_saw_tree(system, 1, system.graph.n).node_count < complete.node_count
    # With --depth it is the split tree, whose stopped free leaves print as
    # frontier; the walk counts the nodes (nodes=) and the dump prints the
    # tree assembled from its record, one line a node.
    code, out, err = run_cli(capsys, "sawtree", "--graph", str(path), "--root", "1", "--depth", "5")
    assert code == 0 and " frontier\n" in out
    assert err == f"nodes={len(out.splitlines())}\n"


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
    # On a degree-3 graph, copies of the conditioned vertices end walks as
    # leaves pinned to their spins, + and -; the count matches the dump.
    path = tmp_path / "rr.json"
    save_system(generate(GenSpec(family="random_regular", n=10, degree=3, coupling=0.3, seed=5)), path)
    code, out, err = run_cli(capsys, "sawtree", "--graph", str(path), "--root", "4",
                             "--depth", "4", "--cond", "1=+,2=-")
    assert code == 0
    assert err == f"nodes={len(out.splitlines())}\n"
    assert re.search(r"^ *1 depth=[0-9]+ \+$", out, re.M)
    assert re.search(r"^ *2 depth=[0-9]+ -$", out, re.M)


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "exact", "--graph", "/does/not/exist.json")
    assert code == 1 and "error:" in err


HUGE = 10**400  # an int no float can hold


def _table_file(pp=0.1, h_plus=0.0, schema_version=1):
    return json.dumps({
        "schema_version": schema_version,
        "vertices": [{"id": 1, "h_plus": h_plus, "h_minus": 0.0},
                     {"id": 2, "h_plus": 0.0, "h_minus": 0.0}],
        "edges": [{"u": 1, "v": 2, "beta": {"pp": pp, "pm": -0.1, "mp": -0.1, "mm": 0.1}}],
    })


def _fields_file(h_plus, h_minus, edges=()):
    """Vertices 1..len(h_plus) with these fields, and these edges in Ising J."""
    return json.dumps({
        "schema_version": 1,
        "vertices": [{"id": v, "h_plus": hp, "h_minus": hm}
                     for v, (hp, hm) in enumerate(zip(h_plus, h_minus), 1)],
        "edges": [{"u": u, "v": v, "beta": {"pp": j, "pm": -j, "mp": -j, "mm": j}}
                  for u, v, j in edges],
    })


GEN_RANDOM = ("gen", "--family", "path", "--n", "3", "--model", "random")

# A str is the text of a graph file given to estimate; a tuple is a command.
MALFORMED = {
    "beta-pp-beyond-float": _table_file(pp=HUGE),
    "h_plus-beyond-float": _table_file(h_plus=HUGE),
    "J-beyond-float": json.dumps({"schema_version": 1, "model": "ising", "J": HUGE, "B": 0.0,
                                  "vertices": [{"id": 1}, {"id": 2}], "edges": [{"u": 1, "v": 2}]}),
    # log Z is 1e308 and 0.1, but the all-plus log weight leaves the float range
    "log-z-hat-inf": _fields_file([-1e308], [1e308]),
    "log-z-hat-nan": _fields_file([-1e308, -1e308], [0.0, 0.0], [(1, 2, 0.1)]),
    "nested-200000-deep": "[" * 200_000,
    "raw-0xff-byte": b'{"schema_version": 1, \xff}',
    # equal to 1 in Python, but ids refuse bools and floats, and so does this
    "schema-version-true": _table_file(schema_version=True),
    "schema-version-1.0": _table_file(schema_version=1.0),
    # valid parameters, but no simple pairing turns up within the bound
    "gen-random-regular-near-complete": ("gen", "--family", "random_regular",
                                         "--n", "10", "--degree", "9"),
    "gen-degree-inf": ("gen", "--family", "random_regular", "--n", "6", "--degree", "inf"),
    "gen-erdos-degree-nan": ("gen", "--family", "erdos_renyi", "--n", "6", "--degree", "nan"),
    "gen-erdos-degree-inf": ("gen", "--family", "erdos_renyi", "--n", "6", "--degree", "inf"),
    "gen-coupling-inf": GEN_RANDOM + ("--coupling", "inf"),
    "gen-coupling-1e308": GEN_RANDOM + ("--coupling", "1e308"),
    "gen-field-inf": GEN_RANDOM + ("--field", "inf"),
    "gen-field-1e308": GEN_RANDOM + ("--field", "1e308"),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exit_1(tmp_path, capsys, case):
    if isinstance(case, (str, bytes)):
        path = tmp_path / "bad.json"
        path.write_bytes(case if isinstance(case, bytes) else case.encode())
        argv = ["estimate", "--graph", str(path), "--eps", "0.1"]
    else:
        argv = [*case, "--out", str(tmp_path / "out.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    if isinstance(case, bytes):
        assert err.startswith("error: invalid JSON:")


def test_estimate_past_a_huge_decoupled_edge_certifies(tmp_path, capsys):
    # Edge (1, 2) has every entry 1e308: J = 0, and log Z = 1e308 exactly.
    data = json.loads(_fields_file([0.0] * 3, [0.0] * 3, [(2, 3, 0.1)]))
    data["edges"].append({"u": 1, "v": 2, "beta": dict.fromkeys(("pp", "pm", "mp", "mm"), 1e308)})
    path = tmp_path / "path.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "estimate", "--graph", str(path), "--eps", "0.1")
    assert code == 0, err
    report = json.loads(out)
    assert (report["applicable"], report["max_coupling"]) == (True, 0.1)
    assert report["log_z_hat"] == 1e308


def test_gen_random_model_keeps_its_largest_bound(tmp_path, capsys):
    # Twice 8.98e307 is still finite, so numpy draws from that range.
    code, _, _ = run_cli(capsys, *GEN_RANDOM, "--coupling", "8.98e307",
                         "--out", str(tmp_path / "out.json"))
    assert code == 0
    # A bound of -0.0 is the bound 0, not the empty range [0.0, -0.0].
    zero = tmp_path / "zero.json"
    assert run_cli(capsys, *GEN_RANDOM, "--coupling", "0", "--out", str(zero))[0] == 0
    for flag in ("--coupling", "--field"):
        negative_zero = tmp_path / f"negative-zero{flag}.json"
        code, _, _ = run_cli(capsys, *GEN_RANDOM, flag, "-0.0", "--out", str(negative_zero))
        assert code == 0
        assert negative_zero.read_bytes() == zero.read_bytes()


def test_bad_condition_string_exit_1(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    for cond in ("1", "1=x", "0=+", "1=+,1=-"):
        code, _, err = run_cli(capsys, "exact", "--graph", graph, "--cond", cond)
        assert code == 1, cond
        assert "error:" in err


def test_bad_arguments_exit_1(tmp_path, capsys):
    assert run_cli(capsys, "estimate")[0] == 1          # missing required flags
    assert run_cli(capsys, "nonsense")[0] == 1          # unknown subcommand
    assert run_cli(capsys)[0] == 1                      # no subcommand
    # Options are taken only by their full names: a prefix is refused, not
    # read as the option it abbreviates (--t as --trials, --ep as --eps).
    graph = write_triangle(tmp_path)
    for argv in (
        ("decay", "--graph", graph, "--root", "1", "--radius", "1", "--t", "2"),
        ("estimate", "--graph", graph, "--ep", "0.1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


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


# Option values that must end in a report or an error line, never a
# traceback.  Huge values go only to options whose work does not grow with
# the value: labels, --radius and --depth (on a graph of 6 vertices), --eps,
# --seed, gen's --degree, --coupling and --field, and gen's sizes --n,
# --rows and --cols, which are refused above a maximum.  A huge --trials
# asks for that much work, so it gets only the other values.
MUTATED = ("0", "-1", "-12", "nan", "inf", "-inf", "-0.0", "1e-320", "x", "")
HUGE_VALUES = ("99999999999999999999999", "1e300", str(HUGE))

# Per subcommand, each option with a valid value and whether huge values
# apply.  A --cond value is mutated in its vertex label.
OPTIONS = {
    "estimate": [("--eps", "0.1", True)],
    "exact": [("--cond", "1=+", True)],
    "verify": [("--suite", "lipschitz", False), ("--trials", "1", False), ("--seed", "0", True)],
    "decay": [("--root", "1", True), ("--radius", "1", True), ("--trials", "2", False),
              ("--seed", "0", True)],
    "gen": [("--family", "random_regular", False), ("--n", "6", True), ("--rows", "2", True),
            ("--cols", "3", True), ("--degree", "3", True), ("--model", "ising", False),
            ("--coupling", "0.3", True), ("--field", "0.1", True), ("--seed", "0", True)],
    "check": [],
    "sawtree": [("--root", "1", True), ("--depth", "2", True), ("--cond", "2=-", True)],
}
# saw-exhaustive walks every connected graph up to 5 vertices whatever the
# trial count, so it stays out to keep the test near 5 s.
FAST_SUITES = ("contraction", "lipschitz", "saw-random", "decay", "telescoping")
FAMILIES = ("path", "cycle", "grid", "complete", "random_regular", "erdos_renyi")
SAWTREE_LINE = re.compile(r"( {2})*[0-9]+ depth=[0-9]+ (free|frontier|\+|-)")
# Options whose values the parser checks in full: each of them refused
# alone with a MUTATED value must be named in the error line.
PARSER_CHECKED = ("--seed", "--coupling", "--field", "--radius", "--trials")


def _mutated_argv(command, graph, out, rng, mutations):
    """The argv of ``command`` with its valid options, each in mutations
    replaced by the value given there."""
    argv = [command]
    if command == "gen":
        argv += ["--out", out]
    elif command != "verify":
        argv += ["--graph", graph]
    for option, valid, _ in OPTIONS[command]:
        if option == "--suite":
            valid = rng.choice(FAST_SUITES)
        elif option == "--family":
            valid = rng.choice(FAMILIES)
        value = mutations.get(option, valid)
        if option == "--cond" and option in mutations:
            value = f"{value}={rng.choice('+-')}"
        argv.append(f"{option}={value}")
    return argv


def _outcome_problem(command, code, out, err):
    """Why a run did not end in one report (exit 0, 1 or 2) or one error
    line (exit 1 or 2, nothing on stdout), or ended in an applicable
    estimate whose log Z is not finite; None when it did."""
    if "Traceback" in err:
        return "traceback"
    errors = [line for line in err.splitlines() if "error:" in line]
    if not out:
        return None if code in (1, 2) and len(errors) == 1 else f"exit {code}, errors {errors}"
    if errors or code not in (0, 1, 2):
        return f"exit {code} with a report and errors {errors}"
    if command == "sawtree":
        lines = out.rstrip("\n").split("\n")
        return None if all(SAWTREE_LINE.fullmatch(line) for line in lines) else "bad dump"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    if report.get("command") != command:
        return "report of another command"
    if command == "estimate" and report.get("applicable") and isinstance(report.get("log_z_hat"), str):
        return f"applicable estimate with log_z_hat {report['log_z_hat']}"
    return None


def test_outcome_check_fails_an_applicable_estimate_that_is_not_finite():
    report = {"schema_version": 1, "command": "estimate", "applicable": True, "log_z_hat": 1.5}
    assert _outcome_problem("estimate", 0, render_json(report), "") is None
    for value in (math.inf, -math.inf, math.nan):
        out = render_json({**report, "log_z_hat": value})
        assert _outcome_problem("estimate", 0, out, "") is not None, out


def test_mutated_options_end_in_one_report_or_one_error_line(tmp_path, capsys):
    # Every option of every subcommand alone, then seeded mixes of several.
    graph = tmp_path / "rr6.json"
    save_system(
        ising_system(build_family_graph("random_regular", n=6, degree=3, seed=2), 0.3, 0.1),
        graph,
    )
    out = str(tmp_path / "gen.json")
    rng = random.Random(20261019)
    cases = []  # (argv, the option its error line must name, or None)
    for command, options in OPTIONS.items():
        for option, _, huge in options:
            for value in MUTATED + (HUGE_VALUES if huge else ()):
                named = option if option in PARSER_CHECKED and value in MUTATED else None
                cases.append((_mutated_argv(command, str(graph), out, rng, {option: value}), named))
    for _ in range(800):
        command = rng.choice(list(OPTIONS))
        mutations = {}
        for option, _, huge in OPTIONS[command]:
            if rng.random() < 1 / 3:
                mutations[option] = rng.choice(MUTATED + (HUGE_VALUES if huge else ()))
        cases.append((_mutated_argv(command, str(graph), out, rng, mutations), None))

    failures = []
    refusals_named = 0
    for argv, named in cases:
        try:
            code, stdout, stderr = run_cli(capsys, *argv)
            problem = _outcome_problem(argv[0], code, stdout, stderr)
            if not problem and named and not stdout:
                refusals_named += 1
                if f"argument {named}" not in stderr:
                    problem = f"error line does not name {named}: {stderr.splitlines()[0]}"
        except Exception as exc:  # every escape from main is a failure to report
            problem = f"raised {exc!r}"
        if problem:
            shown = " ".join(arg if len(arg) < 40 else arg[:30] + "..." for arg in argv)
            failures.append(f"{shown}: {problem}")
    assert not failures, "\n".join(failures)
    assert refusals_named > 50, refusals_named


# Graph files that must end in a report or an error line, never a
# traceback: two valid files, one with full tables and one in the ising
# shorthand with a few tables of its own, under seeded byte flips,
# truncations, type swaps, extreme numbers, duplicate and missing keys and
# deep nesting.  Number tokens are written as text, so they include ints
# beyond the float range and the str-conversion limit, and the Infinity
# and NaN that Python's json reads.
EXTREME_NUMBERS = (
    "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5000, "1e308", "-1e308", "1e400",
    "Infinity", "-Infinity", "NaN", "-0.0", "5e-324", "-1", "0", "1", "2", "7", "0.5", "3.5",
)
SWAPPED = (None, True, False, "x", "", [], {}, [1], [[1]], {"id": 1}, 0.3, -2, 10**30)
NESTING = (2, 50, 900, 990, 1200, 100_000)


def _json_nodes(value, path=()):
    """Every (path, value) of a parsed JSON document, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_nodes(item, path + (index,))


def _replace_node(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _mutated_graph_file(rng, base) -> bytes:
    """``base``, a parsed graph file, after 1-3 seeded edits of its values
    and keys and then, or only, a byte flip or a truncation."""
    doc = json.loads(json.dumps(base))
    raw = []  # the text each "@raw<i>@" placeholder string stands for

    def token(text):
        raw.append(text)
        return f"@raw{len(raw) - 1}@"

    def new_value():
        kind = rng.choice(("swap", "number", "nest", "copy"))
        if kind == "swap":
            return json.loads(json.dumps(rng.choice(SWAPPED)))
        if kind == "number":
            return token(rng.choice(EXTREME_NUMBERS))
        if kind == "nest":
            depth = rng.choice(NESTING)
            inner = rng.choice(EXTREME_NUMBERS)
            return token("[" * depth + inner + "]" * depth if rng.random() < 0.5
                         else '{"a": ' * depth + inner + "}" * depth)
        return json.loads(json.dumps(rng.choice(list(_json_nodes(doc)))[1]))

    edits = rng.randint(1, 3) if rng.random() < 0.85 else 0
    for _ in range(edits):
        nodes = list(_json_nodes(doc))
        numbers = [node for node in nodes if type(node[1]) in (int, float)]
        objects = [value for _, value in nodes if isinstance(value, dict) and value]
        kind = rng.choice(("number", "replace", "duplicate", "missing"))
        if kind == "number" and numbers:  # most of a file's values are numbers
            doc = _replace_node(doc, rng.choice(numbers)[0], new_value())
        elif kind in ("number", "replace") or not objects:
            doc = _replace_node(doc, rng.choice(nodes)[0], new_value())
        elif kind == "duplicate":  # the later key wins in Python's json
            target = rng.choice(objects)
            target[token(json.dumps(rng.choice(list(target))))] = new_value()
        else:
            target = rng.choice(objects)
            del target[rng.choice(list(target))]
    text = json.dumps(doc, indent=rng.choice((None, 2)))
    for index in reversed(range(len(raw))):  # a later text may hold an earlier placeholder
        text = text.replace(f'"@raw{index}@"', raw[index])
    data = bytearray(text.encode())
    if not edits or rng.random() < 0.1:
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        else:
            del data[rng.randrange(len(data)):]
    return bytes(data)


def test_mutated_graph_files_end_in_one_report_or_one_error_line(tmp_path, capsys):
    tables = generate(GenSpec("random_regular", n=6, degree=3, model="random",
                              coupling=0.3, field_strength=0.2, seed=1))
    shorthand = {
        "schema_version": 1, "model": "ising", "J": 0.3, "B": 0.1,
        "vertices": [{"id": 1}, {"id": 2, "h_plus": 0.2, "h_minus": -0.1}, {"id": 3}, {"id": 4}],
        "edges": [{"u": 1, "v": 2}, {"u": 3, "v": 2, "beta": {"pp": 0.2, "pm": -0.1, "mp": 0.0, "mm": 0.1}},
                  {"u": 3, "v": 4}, {"u": 4, "v": 1}],
    }
    bases = (json.loads(serialize_system(tables)), shorthand)
    path = tmp_path / "mutated.json"
    rng = random.Random(20261019)
    failures = []
    for _ in range(1500):
        data = _mutated_graph_file(rng, rng.choice(bases))
        path.write_bytes(data)
        command = rng.choice(("estimate", "check", "exact"))
        argv = [command, "--graph", str(path)] + (["--eps", "0.1"] if command == "estimate" else [])
        try:
            code, stdout, stderr = run_cli(capsys, *argv)
            problem = _outcome_problem(command, code, stdout, stderr)
        except Exception as exc:  # every escape from main is a failure to report
            problem = f"raised {exc!r}"
        if problem:
            shown = data if len(data) < 300 else data[:150] + b"..." + data[-100:]
            failures.append(f"{command} {shown!r}: {problem}")
    assert not failures, "\n".join(failures)
