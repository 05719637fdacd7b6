"""The repo's tools against the package they drive."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import modquant  # noqa: F401  (loads every submodule the tracer looks up)
from modquant.cli import EXIT_OK, RunConfig, main
from modquant.lowrank import default_rank

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Tracer targets whose functions were deleted or renamed before the tracer
# could follow; their per-layer metrics read 0.
DEAD_TARGETS = {
    "tensor.matmul", "quantizer.compute_params", "quantizer.fake_quantize",
    "quantizer.clamp_mask", "transform.apply_right", "transform.apply_inv_left",
    "transform.diagonal_transform", "layer.with_updated_params",
}


# The digest entries of four (workload, seed) pairs, pinned with the build of
# numpy and BLAS that wrote them; tools/output_digest.py runs every command on
# one BLAS thread.  A change that moves outputs on purpose rewrites the file with
#     PYTHONPATH=src python3 tests/test_tooling.py
# so that git's diff of it lists exactly the entries that moved.
PINNED_DIGEST = ROOT / "tests" / "output_digest.json"
PINNED_PAIRS = ["calib-wide/seed0", "defaults/seed3", "loop-small/seed0",
                "select-text-heavy/seed0"]


def _perfbench(monkeypatch, name):
    """perfbench/<name>.py, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # a dataclass looks it up
    spec.loader.exec_module(module)
    return module


def test_every_live_tracer_target_resolves(monkeypatch):
    # Tracer.install skips a target that does not resolve without a word, so
    # a renamed function would zero its per-layer metric silently.
    unresolved = [f"{module.removeprefix('modquant.')}.{name}"
                  for module, name, _ in _perfbench(monkeypatch, "tracer").TARGETS
                  if not callable(getattr(sys.modules.get(module), name, None))]
    assert [t for t in unresolved if t not in DEAD_TARGETS] == []


def test_import_loads_every_module_the_tracer_targets(monkeypatch):
    # perfbench's Tracer.install looks each target's module up with
    # sys.modules[name], so a module that ``import modquant`` no longer loads
    # (deleted, or folded into another) makes --trace 1 fail with a KeyError.
    targets = sorted({module for module, _, _ in _perfbench(monkeypatch, "tracer").TARGETS})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, modquant; print(*sorted(m for m in sys.modules if m.startswith('modquant')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert [m for m in targets if m not in loaded] == []


def test_benchmark_checks_pass_on_the_cli_outputs(monkeypatch, tmp_path):
    # perfbench/checks.py reads the layer directory and the CSVs without
    # modquant, so an output format that drifts from what it reads fails here.
    checks = _perfbench(monkeypatch, "checks")
    acts, weights = str(tmp_path / "activations.spqt"), str(tmp_path / "weights.spqt")
    out = str(tmp_path / "out")
    assert main(["gen", "--out", str(tmp_path)]) == EXIT_OK
    assert main(["calibrate", "--activations", acts, "--weights", weights,
                 "--steps", "20", "--out", out]) == EXIT_OK
    assert main(["eval", "--activations", acts, "--out", out]) == EXIT_OK
    checks.check_calibrate(out, weights, 20, 0)
    checks.check_eval(out, acts, 0)


def test_every_unexported_name_is_read_in_the_package():
    # No library code whose only user is a test: each module-level function,
    # class and constant that __init__.py does not export is read (a Load
    # name or an attribute) somewhere in the package outside its definition.
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "modquant").glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads = [(n.id if isinstance(n, ast.Name) else n.attr, id(n))
             for tree in trees.values() for n in ast.walk(tree)
             if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
             or isinstance(n, ast.Attribute)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            unread += [f"{module.removesuffix('.py')}.{name}" for name in names
                       if name not in exported
                       and not any(r == name and at not in inside for r, at in reads)]
    assert unread == []


def _code_lines(package):
    """tools/code_lines.py's output on ``package``: per-file rows of (name,
    physical, code), the totals row, and the code total outside __init__.py."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
                          capture_output=True, text=True, timeout=60, check=True)
    lines = done.stdout.splitlines()
    rows = [(name, int(p), int(c)) for name, p, c in map(str.split, lines[1:-2])]
    total = lines[-2].split()
    assert total[0] == "total"
    return rows, (int(total[1]), int(total[2])), int(lines[-1].split()[-1])


def test_code_lines_totals_match_wc():
    package = ROOT / "src" / "modquant"
    files = sorted(str(p) for p in package.glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    rows, (physical, code), outside = _code_lines(package)
    assert [name for name, _, _ in rows] == [os.path.basename(f) for f in files]
    assert physical == int(wc.stdout.splitlines()[-1].split()[0])
    assert all(0 < c <= p for _, p, c in rows) and code <= physical
    assert outside == code - dict((name, c) for name, _, c in rows)["__init__.py"]


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Package docstring."""\nfrom .m import f\n')
    (tmp_path / "m.py").write_text(
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        'x = """a string\nthat is code"""  # trailing comment\n'
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return (1,\n"
        "            2)\n")
    rows, total, outside = _code_lines(tmp_path)
    assert rows == [("__init__.py", 2, 1), ("m.py", 11, 5)]
    assert (total, outside) == ((13, 6), 5)


def test_output_digest_runs_only_the_selected_pairs(tmp_path):
    tool, src = str(ROOT / "tools" / "output_digest.py"), str(ROOT / "src")
    out = tmp_path / "digest.json"
    bad = subprocess.run([sys.executable, tool, src, str(out), "loop-small/seed1"],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 1 and "unknown selector loop-small/seed1" in bad.stderr
    assert not out.exists()
    subprocess.run([sys.executable, tool, src, str(out), "loop-small/seed0"],
                   capture_output=True, timeout=120, check=True)
    entries = json.loads(out.read_text())
    assert len(entries) == 68 and all(k.startswith("loop-small/seed0/") for k in entries)
    assert entries["loop-small/seed0/stability.exit"] == EXIT_OK


def test_stagebench_writes_its_file(tmp_path):
    # The smallest size at one repeat: every stage timed, the build recorded.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stagebench.py"), "smoke",
                           "--sizes", "128x64", "--repeats", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "BENCH_stages-smoke.json").read_text())
    assert result["environment"].keys() == {"python", "numpy", "blas", "blas_threads", "nproc"}
    assert result["environment"]["blas_threads"] == 1
    (size,) = result["sizes"]
    assert (size["tokens"], size["dim"], size["d_out"]) == (128, 64, 64)
    stages = ["forward_with_cache_s", "analytic_gradient_s", "calibrate_step_s"]
    assert list(size["stages"]) == stages and list(size["samples"]) == stages
    assert all(value > 0 and len(size["samples"][name]) == 1
               for name, value in size["stages"].items())
    # The CLI's default layer: its rank ratios at the recorded main width.
    run = RunConfig()
    assert size["ranks"] == [default_rank(ratio, size["widths"][0], size["d_out"])
                             for ratio in (run.rank_cws, run.rank_mac)] == [1, 2]


def _digest_tool():
    spec = importlib.util.spec_from_file_location("_output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build() -> dict:
    """The numpy version and the BLAS that numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its build and names no BLAS here
        blas = {"name": "unknown"}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}"}


def test_outputs_match_the_pinned_digest():
    # Byte identity of the CLI outputs, checked on every run and not only by
    # hand against a parent tree: any moved bit of a pinned output fails here.
    pinned = json.loads(PINNED_DIGEST.read_text())
    if pinned["build"] != _build():
        pytest.skip(f"digest pinned on {pinned['build']}, this build is {_build()}")
    entries = _digest_tool().digest(str(ROOT / "src"), PINNED_PAIRS)
    moved = sorted(k for k in pinned["entries"].keys() | entries.keys()
                   if pinned["entries"].get(k) != entries.get(k))
    assert moved == []


if __name__ == "__main__":
    PINNED_DIGEST.write_text(json.dumps(
        {"build": _build(), "blas_threads": 1,
         "entries": _digest_tool().digest(str(ROOT / "src"), PINNED_PAIRS)},
        indent=0, sort_keys=True) + "\n")
