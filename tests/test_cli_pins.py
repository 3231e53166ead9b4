import re

import pytest

import cli_pins

ENTRIES = cli_pins.load()
ENTRY = {"name": "e", "why": "w", "files": {"g.el": {"gen": ["path", "3"]}},
         "argv": ["solve", "g.el"], "exit": 0}


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_pin(tmp_path, entry):
    assert cli_pins.run_entry(entry, cli_pins.run_in_process, tmp_path) == []


@pytest.mark.parametrize("entries, message", [
    ([{k: v for k, v in ENTRY.items() if k != "exit"}], "e: missing ['exit']"),
    ([{**ENTRY, "stdout": "", "stdout_has": "x"}], "e: more than one of"),
    ([{**ENTRY, "stdout_sha": "00"}], "e: unknown keys ['stdout_sha']"),
    ([ENTRY, dict(ENTRY)], "e: two entries have this name"),
    ([{**ENTRY, "argv": ["solve", "h.el"]}], "e: argv names h.el, which the entry does not make"),
], ids=["no-exit", "two-stdout-pins", "unknown-key", "same-name", "unmade-file"])
def test_a_table_that_cannot_fail_is_refused(entries, message):
    assert cli_pins.validate([ENTRY]) == [ENTRY]
    with pytest.raises(ValueError, match=re.escape(message)):
        cli_pins.validate(entries)
