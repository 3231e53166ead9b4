import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from copsrobbers.checks import all_connected_graphs, random_connected, random_girth5  # noqa: F401


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
