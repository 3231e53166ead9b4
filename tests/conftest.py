import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from copsrobbers.checks import all_connected_graphs, random_connected, random_girth5  # noqa: F401


@pytest.fixture(scope="session")
def petersen():
    from copsrobbers import gen_petersen

    return gen_petersen()
