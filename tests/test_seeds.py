import hashlib

import pytest

from copsrobbers import Graph, format_edge_list, gen_grid, gen_petersen, graph_hash
from copsrobbers.seeds import derive_seed, sha256

# about 10 KB of edge-list text
EDGE_LIST = format_edge_list(gen_grid(30, 30)).encode()


@pytest.mark.parametrize("data", [b"", b"0:gnp", b"18446744073709551615:expander:0",
                                  "7:meyniel:é".encode(), EDGE_LIST],
                         ids=["empty", "label", "max-seed", "non-ascii", "edge-list"])
def test_sha256_is_hashlibs(data):
    assert len(EDGE_LIST) > 10_000
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_seeds_and_graph_hashes_are_unchanged():
    assert derive_seed(0, "gnp") == 14008585033304463614
    assert derive_seed(-1, "meyniel") == 17741693944617392537
    assert derive_seed(2**64 + 7, "expander:0") == 5087013784517422418
    assert graph_hash(gen_petersen()) == "223b9bae4baa1733"
    assert graph_hash(gen_grid(5, 6)) == "5614214e37abe4d7"
    assert graph_hash(Graph(1, [])) == "f4a8ae8e74ddfb89"


def test_sha256_falls_back_to_hashlib_without_the_builtin_module(fresh_python):
    # a None entry in sys.modules makes that import raise ImportError
    done = fresh_python("""
import hashlib, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from copsrobbers import graph_hash, gen_petersen
from copsrobbers.seeds import derive_seed, sha256
assert sha256 is hashlib.sha256, sha256
assert derive_seed(0, "gnp") == 14008585033304463614
assert graph_hash(gen_petersen()) == "223b9bae4baa1733"
assert sha256(b"").hexdigest() == hashlib.sha256(b"").hexdigest()
""")
    assert done.returncode == 0, done.stderr
