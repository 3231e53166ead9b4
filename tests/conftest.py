import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from copsrobbers.checks import all_connected_graphs, random_connected, random_girth5  # noqa: F401


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter that imports the package
    from ``src``; returns the finished process, its output as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
    return run


@pytest.fixture(scope="session")
def petersen():
    from copsrobbers import gen_petersen

    return gen_petersen()


@pytest.fixture
def diameter_scans(monkeypatch):
    """The vertex counts of the graphs ``diameter_pair`` scans, one entry per
    scan; a kept result adds none."""
    import copsrobbers.graph as graph_mod

    sizes = []
    scan = graph_mod._diameter_scan

    def counting_scan(g):
        sizes.append(g.n)
        return scan(g)

    monkeypatch.setattr(graph_mod, "_diameter_scan", counting_scan)
    return sizes
