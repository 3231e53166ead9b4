"""The CLI and demo output pins of ``cli_pins.json``, and their two drivers.

The table holds the input ``files`` its entries share, each keyed by name
and made by a ``gen`` argv or written from inline edge-list ``text``, and
the ``entries``.  Each entry is one run: its ``name``; a one-line ``why``;
its ``argv``, a ``copsrobbers`` command line or a demo script
(``demos/*.py``, relative to the repository); the ``exit`` code it must
return; at most one stdout pin (``stdout_sha256``, the whole ``stdout``
text, or a substring ``stdout_has``); and optionally a substring
``stderr_has``.  An argv item ending in ``.el`` names one of the table's
files and is replaced by its path.  No entry writes to a file, so each
driver makes every file once (``make_files``) and all entries read it.

``test_cli_pins.py`` runs every entry in-process through ``cli.main``
(``run_in_process``); ``python tests/cli_pins.py`` runs every entry as a
process (``run_process``) and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("cli_pins.json")
REQUIRED = {"name", "why", "argv", "exit"}
STDOUT_PINS = {"stdout_sha256", "stdout", "stdout_has"}
KEYS = REQUIRED | STDOUT_PINS | {"stderr_has"}


def validate(table: dict) -> dict:
    """The table, once every entry can fail: a ValueError names the first
    entry that has an unknown key, misses a required one, pins stdout twice,
    repeats a name, or names a file in its argv that the table does not
    make, and then a file that no entry names."""
    files, names, named = table["files"], set(), set()
    for entry in table["entries"]:
        name = entry.get("name")
        if unknown := entry.keys() - KEYS:
            raise ValueError(f"{name}: unknown keys {sorted(unknown)}")
        if missing := REQUIRED - entry.keys():
            raise ValueError(f"{name}: missing {sorted(missing)}")
        if len(entry.keys() & STDOUT_PINS) > 1:
            raise ValueError(f"{name}: more than one of {sorted(STDOUT_PINS)}")
        if name in names:
            raise ValueError(f"{name}: two entries have this name")
        names.add(name)
        for arg in entry["argv"]:
            if arg.endswith(".el"):
                if arg not in files:
                    raise ValueError(f"{name}: argv names {arg}, which the table does not make")
                named.add(arg)
    if unused := files.keys() - named:
        raise ValueError(f"no entry names the files {sorted(unused)}")
    return table


def load() -> dict:
    return validate(json.loads(TABLE.read_text()))


def mismatches(entry: dict, code, out: str, err: str) -> list[str]:
    """What the run's exit code, stdout and stderr leave of the entry's
    pins unmet; empty when the run passes."""
    found = []
    if code != entry["exit"]:
        found.append(f"exit {code}, want {entry['exit']}; stderr {err[-300:]!r}")
    if "stdout_sha256" in entry:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != entry["stdout_sha256"]:
            found.append(f"stdout sha256 {digest}, want {entry['stdout_sha256']}")
    if "stdout" in entry and out != entry["stdout"]:
        found.append(f"stdout {out[:300]!r}, want {entry['stdout']!r}")
    if "stdout_has" in entry and entry["stdout_has"] not in out:
        found.append(f"stdout lacks {entry['stdout_has']!r}")
    if "stderr_has" in entry and entry["stderr_has"] not in err:
        found.append(f"stderr {err[-300:]!r} lacks {entry['stderr_has']!r}")
    return found


def make_files(files: dict, run, workdir) -> dict[str, str]:
    """Make each of the table's ``files`` in ``workdir``, a ``gen`` one
    through ``run`` (argv -> (exit code, stdout, stderr)); return the path
    of each by name.  A ``gen`` that fails raises RuntimeError."""
    paths = {}
    for file, spec in files.items():
        paths[file] = path = os.path.join(workdir, file)
        if "gen" in spec:
            code, _, err = run(["gen", *spec["gen"], "-o", path])
            if code != 0:
                raise RuntimeError(f"gen {file} exited {code}: {err[-300:]!r}")
        else:
            Path(path).write_text(spec["text"])
    return paths


def run_entry(entry: dict, run, paths: dict[str, str]) -> list[str]:
    """Run the entry's argv through ``run``, with each file name replaced by
    its path in ``paths``, and return its mismatches."""
    return mismatches(entry, *run([paths.get(arg, arg) for arg in entry["argv"]]))


def run_in_process(argv: list[str]):
    # imported here, as the process driver needs no package on its own path
    from copsrobbers.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv[0].endswith(".py"):
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
                code = 0
            else:
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_process(argv: list[str]):
    command = argv if argv[0].endswith(".py") else ["-m", "copsrobbers.cli", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *command], cwd=ROOT, env=env, capture_output=True)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


if __name__ == "__main__":
    failed = 0
    table = load()
    with tempfile.TemporaryDirectory() as workdir:
        paths = make_files(table["files"], run_process, workdir)
        for entry in table["entries"]:
            found = run_entry(entry, run_process, paths)
            print(("FAIL " if found else "ok   ") + entry["name"], *found, sep="\n     ")
            failed += bool(found)
    print(f"{failed} of the pins failed" if failed else "every pin passed")
    sys.exit(1 if failed else 0)
