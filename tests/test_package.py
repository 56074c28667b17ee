"""The package surface: the estimate path loads only the standard library
and none of the modules it does not use, and the names of the walk-tree
builder, the generators and the oracle are exported lazily.  Every function
the estimate never calls lives off its path, so it compiles only what it
runs.

Import boundaries are checked in a fresh interpreter, because this test
process has long since imported numpy and the oracle.  They are checked by
module presence, not by timing, so they cannot flake.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import spinz
from spinz import build_family_graph, cli, fptas_log_partition, ising_system, save_system
from spinz import commands, core, families, graphfile, marginal, oracle, partition, sawtree

# Modules the estimate path must not load.  dataclasses brings inspect, and
# ``cli.main`` alone may load argparse and the commands.
HEAVY = (
    "numpy",
    "scipy",
    "spinz.oracle",
    "concurrent.futures",
    "dataclasses",
    "inspect",
    "argparse",
    "spinz.sawtree",
    "spinz.families",
    "spinz.commands",
)
# The spinz modules that ``load_system``, ``fptas_log_partition`` and
# ``cli.render_json`` load; ``cli.main(["estimate", ...])`` adds the commands.
ESTIMATE_MODULES = [
    "spinz", "spinz.cli", "spinz.core", "spinz.graphfile", "spinz.marginal", "spinz.partition",
]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spinz.__file__)))


def run_fresh(script: str, *args: str):
    """Run ``script`` in a new interpreter that imports this checkout's
    spinz; its last stdout line is parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    prelude = (
        f"HEAVY = {HEAVY!r}\n"
        "def spinz_modules():\n"
        "    import sys\n"
        "    return sorted(m for m in sys.modules if m == 'spinz' or m.startswith('spinz.'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def write_grid(tmp_path):
    path = tmp_path / "grid.json"
    save_system(ising_system(build_family_graph("grid", rows=3, cols=4), 0.2, 0.1), path)
    return str(path)


def estimate_text(system, eps: float) -> str:
    payload = {"schema_version": cli.REPORT_SCHEMA_VERSION, "command": "estimate", "applicable": True}
    payload.update(fptas_log_partition(system, eps).to_dict())
    return cli.render_json(payload)


def test_estimate_path_loads_no_numpy_scipy_oracle_or_pool(tmp_path):
    path = write_grid(tmp_path)
    result = run_fresh(
        """
        import json, sys
        import spinz
        from spinz import cli

        system = spinz.load_system(sys.argv[1])
        report = spinz.fptas_log_partition(system, 0.1)
        payload = {"schema_version": cli.REPORT_SCHEMA_VERSION, "command": "estimate", "applicable": True}
        payload.update(report.to_dict())
        text = cli.render_json(payload)
        print(json.dumps({"loaded": [m for m in HEAVY if m in sys.modules],
                          "spinz": spinz_modules(), "text": text}))
        """,
        path,
    )
    assert result["loaded"] == []
    assert result["spinz"] == ESTIMATE_MODULES
    assert result["text"] == estimate_text(spinz.load_system(path), 0.1)


def test_cli_estimate_loads_no_numpy_and_has_no_threads(tmp_path):
    path = write_grid(tmp_path)
    result = run_fresh(
        """
        import contextlib, io, json, sys
        from spinz import cli

        def estimate(*extra):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["estimate", "--graph", sys.argv[1], "--eps", "0.1", *extra])
            return code, out.getvalue()

        serial = estimate()
        threads = estimate("--threads", "2")
        loaded = [m for m in HEAVY if m in sys.modules]
        print(json.dumps({"serial": serial, "threads": threads, "loaded": loaded,
                          "spinz": spinz_modules()}))
        """,
        path,
    )
    assert result["loaded"] == ["argparse", "spinz.commands"]
    assert result["spinz"] == sorted([*ESTIMATE_MODULES, "spinz.commands"])
    assert result["serial"] == [0, estimate_text(spinz.load_system(path), 0.1)]
    assert result["threads"] == [1, ""]


def test_all_is_the_submodules_all_in_order():
    expected = [
        *core.__all__,
        *marginal.__all__,
        *partition.__all__,
        *graphfile.__all__,
        *sawtree.__all__,
        *families.__all__,
        *oracle.__all__,
        "__version__",
    ]
    assert spinz.__all__ == expected
    assert len(set(spinz.__all__)) == len(spinz.__all__)


def test_every_exported_name_resolves():
    for name in spinz.__all__:
        assert hasattr(spinz, name), name
    assert spinz.exact_log_partition is oracle.exact_log_partition
    assert spinz.generate is families.generate
    assert spinz.build_saw_tree is sawtree.build_saw_tree
    # The reference evaluator lives beside the builder, off the estimate path.
    assert spinz.tree_log_ratio is sawtree.tree_log_ratio
    assert "tree_log_ratio" not in marginal.__all__
    # So does every function the estimate never calls.
    moved = {
        "decay_function": (oracle, core),
        "edge_factor_log": (sawtree, marginal),
        "conditional_marginal_estimate": (sawtree, partition),
        "root_share": (partition, marginal),
        "label_share": (partition, marginal),
        "serialize_system": (families, graphfile),
        "save_system": (families, graphfile),
    }
    for name, (home, old_home) in moved.items():
        assert getattr(spinz, name) is getattr(home, name), name
        assert name in home.__all__ and not hasattr(old_home, name), name
    assert cli.__all__ == ["main", "render_json"]
    assert commands.__all__ == ["build_parser"] and not hasattr(cli, "build_parser")


def test_generate_is_the_function_when_its_module_loads_first():
    # Importing a submodule binds it on the package, so a module named
    # ``generate`` would replace the function.
    result = run_fresh(
        """
        import json
        import spinz.families
        import spinz

        print(json.dumps({"same": spinz.generate is spinz.families.generate,
                          "callable": callable(spinz.generate)}))
        """
    )
    assert result == {"same": True, "callable": True}


def test_oracle_names_load_lazily():
    result = run_fresh(
        """
        import json, sys
        import spinz

        lazy = [name for names in spinz._LAZY_ALL.values() for name in names]
        listed = [name for name in lazy if name in dir(spinz)]
        after_dir = [m for m in HEAVY if m in sys.modules]
        try:
            spinz.no_such_name
            unknown = "resolved"
        except AttributeError as err:
            unknown = str(err)
        after_unknown = [m for m in HEAVY if m in sys.modules]
        tree_module = spinz.sawtree
        after_sawtree = [m for m in HEAVY if m in sys.modules]
        namespace = {}
        exec("from spinz import *", namespace)
        missing = [name for name in spinz.__all__ if name not in namespace]
        same = all(
            namespace[name] is getattr(sys.modules[f"spinz.{module}"], name)
            for module, names in spinz._LAZY_ALL.items()
            for name in names
        )
        print(json.dumps({"lazy": lazy, "listed": listed, "after_dir": after_dir,
                          "unknown": unknown, "after_unknown": after_unknown,
                          "after_sawtree": after_sawtree,
                          "tree_module": tree_module.__name__,
                          "missing": missing, "same": same}))
        """
    )
    assert result["listed"] == result["lazy"]
    assert result["after_dir"] == []
    assert result["unknown"] == "module 'spinz' has no attribute 'no_such_name'"
    assert result["after_unknown"] == []
    assert result["after_sawtree"] == ["dataclasses", "inspect", "spinz.sawtree"]
    assert result["tree_module"] == "spinz.sawtree"
    assert result["missing"] == []
    assert result["same"] is True
