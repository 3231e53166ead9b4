import re

import pytest

import cli_pins

TABLE = cli_pins.load()
FILES = {"g.el": {"gen": ["path", "3"]}}
ENTRY = {"name": "e", "why": "w", "argv": ["solve", "g.el"], "exit": 0}


@pytest.fixture(scope="session")
def pin_files(tmp_path_factory):
    return cli_pins.make_files(TABLE["files"], cli_pins.run_in_process,
                               tmp_path_factory.mktemp("pins"))


@pytest.mark.parametrize("entry", TABLE["entries"], ids=[e["name"] for e in TABLE["entries"]])
def test_cli_pin(pin_files, entry):
    assert cli_pins.run_entry(entry, cli_pins.run_in_process, pin_files) == []


@pytest.mark.parametrize("table, message", [
    ({"files": FILES, "entries": [{k: v for k, v in ENTRY.items() if k != "exit"}]},
     "e: missing ['exit']"),
    ({"files": FILES, "entries": [{**ENTRY, "stdout": "", "stdout_has": "x"}]},
     "e: more than one of"),
    ({"files": FILES, "entries": [{**ENTRY, "stdout_sha": "00"}]},
     "e: unknown keys ['stdout_sha']"),
    ({"files": FILES, "entries": [ENTRY, dict(ENTRY)]}, "e: two entries have this name"),
    ({"files": FILES, "entries": [{**ENTRY, "argv": ["solve", "h.el"]}]},
     "e: argv names h.el, which the table does not make"),
    ({"files": {**FILES, "h.el": {"text": "1 0\n"}}, "entries": [ENTRY]},
     "no entry names the files ['h.el']"),
], ids=["no-exit", "two-stdout-pins", "unknown-key", "same-name", "unmade-file",
        "unused-file"])
def test_a_table_that_cannot_fail_is_refused(table, message):
    good = {"files": FILES, "entries": [ENTRY]}
    assert cli_pins.validate(good) == good
    with pytest.raises(ValueError, match=re.escape(message)):
        cli_pins.validate(table)
