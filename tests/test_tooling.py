"""The repo's tools against the package they drive."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_loads_every_module_the_tracer_targets(monkeypatch):
    # perfbench's Tracer.install looks each target's module up with
    # sys.modules[name], so a module that ``import modquant`` no longer loads
    # (deleted, or folded into another) makes --trace 1 fail with a KeyError.
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclass looks it up
    spec.loader.exec_module(tracer)
    targets = sorted({module for module, _, _ in tracer.TARGETS})
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
