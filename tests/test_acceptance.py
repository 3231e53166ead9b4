"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 1-9 run ``copsrobbers.checks`` on the full acceptance data; the last
criterion regenerates all of them from scratch and requires byte equality.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json

from copsrobbers import diameter_pair, shortest_path
from copsrobbers import checks
from copsrobbers.checks import FULL_BUDGET

from oracles import diameter_pair_allpairs

SEED = 20240 + 817


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def conclude(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


_reports: dict[int, str] = {}


def remember(number: int, doc) -> dict:
    _reports[number] = canon(doc)
    return doc


def accept(number: int):
    title, criterion, verdict = checks.CRITERIA[number]
    doc = remember(number, criterion(SEED, FULL_BUDGET))
    conclude(number, title, *verdict(doc))


def test_criterion_1_oracle_agreement():
    accept(1)


def test_criterion_2_known_cop_numbers():
    accept(2)


def test_criterion_3_girth_bound():
    accept(3)


def test_criterion_4_guard_soundness():
    accept(4)


def test_guard_corpus_geodesics_match_allpairs_reference():
    for g, _ in checks._guard_corpus(SEED):
        _, u, v = diameter_pair(g)
        _, a, b = diameter_pair_allpairs(g)
        assert shortest_path(g, u, v) == shortest_path(g, a, b)


def test_criterion_5_expander_confinement():
    accept(5)


def test_criterion_6_claim_implies_planning():
    accept(6)


def test_criterion_7_recursion():
    accept(7)


def test_criterion_8_bound_arithmetic():
    accept(8)


def test_criterion_9_invisible_mode():
    accept(9)


# 10. Determinism: regenerate every report and compare bytes.

GENERATORS = {number: (lambda c=criterion: c(SEED, FULL_BUDGET))
              for number, (_, criterion, _) in checks.CRITERIA.items()}


def test_criterion_10_determinism():
    mismatches = []
    for number, gen in GENERATORS.items():
        first = _reports.get(number)
        if first is None:
            first = canon(gen())
            _reports[number] = first
        again = canon(gen())
        if again != first:
            mismatches.append(number)
    conclude(10, "byte-identical re-runs", not mismatches,
             f"criteria {sorted(GENERATORS)} regenerated")


# SHA-256 of the canonical JSON of criteria 1-9 at SEED, taken when their
# generators still lived in this file; the package must reproduce them exactly.
PINNED_REPORT_SHA256 = {
    1: "fbf20c99ac1ac488e7abefd37ddf7061d9859628f066b9ed9cddb9b6f64f2f19",
    2: "3624125dafd24cc67403c844a35ea2fe475b2f85b77ee5b7bb27f82e88850d5f",
    3: "a0dd50aab7c7b3857080df82b2d9500a86e75f614b023c1ced19929efd535ac6",
    4: "87e41b4360919ebe8faf7779b4ce958907bcd1fafb6bebef17552a43796fad24",
    5: "bfdc99719563208d11351fe4141d66d40a3904932fac08b85ef9f85306b831d4",
    6: "9b61d9fa1e33f3f00a1ff100cab3be69e3679b77844531a89f79602e506514d5",
    7: "4652c7687ea9af9fe331bdea53791e2d7b984c005a65c785010aac0102650d11",
    8: "e3f81ad5cb3161b09bb9ee55d4674cff21de51e6bab050860a79c693becef832",
    9: "5d3efa82a02b5895fab3cb606878636e38055228308b35dfc5a3d4d647d5226f",
}


def test_reports_match_pinned_hashes():
    for number, gen in GENERATORS.items():
        if number not in _reports:
            _reports[number] = canon(gen())
    digests = {n: hashlib.sha256(_reports[n].encode()).hexdigest() for n in GENERATORS}
    assert digests == PINNED_REPORT_SHA256
