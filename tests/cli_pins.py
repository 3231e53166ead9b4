"""The CLI and demo output pins of ``cli_pins.json``, and their two drivers.

Each entry is one run: its ``name``; a one-line ``why``; its input
``files``, each made in a fresh directory by a ``gen`` argv or written from
inline edge-list ``text``; its ``argv``, a ``copsrobbers`` command line or a
demo script (``demos/*.py``, relative to the repository); the ``exit`` code
it must return; at most one stdout pin (``stdout_sha256``, the whole
``stdout`` text, or a substring ``stdout_has``); and optionally a substring
``stderr_has``.  An argv item ending in ``.el`` names one of the entry's
files and is replaced by its path.

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
KEYS = REQUIRED | STDOUT_PINS | {"files", "stderr_has"}


def validate(entries: list) -> list:
    """The entries, once every one can fail: a ValueError names the first
    that has an unknown key, misses a required one, pins stdout twice,
    repeats a name, or names a file in its argv that it does not make."""
    names = set()
    for entry in entries:
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
        files = entry.get("files", {})
        for arg in entry["argv"]:
            if arg.endswith(".el") and arg not in files:
                raise ValueError(f"{name}: argv names {arg}, which the entry does not make")
    return entries


def load() -> list:
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


def run_entry(entry: dict, run, workdir) -> list[str]:
    """Make the entry's files in ``workdir``, run its argv through ``run``
    (argv -> (exit code, stdout, stderr)), and return its mismatches."""
    paths = {}
    for file, spec in entry.get("files", {}).items():
        paths[file] = path = os.path.join(workdir, file)
        if "gen" in spec:
            code, _, err = run(["gen", *spec["gen"], "-o", path])
            if code != 0:
                return [f"gen {file} exited {code}: {err[-300:]!r}"]
        else:
            Path(path).write_text(spec["text"])
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
    for entry in load():
        with tempfile.TemporaryDirectory() as workdir:
            found = run_entry(entry, run_process, workdir)
        print(("FAIL " if found else "ok   ") + entry["name"], *found, sep="\n     ")
        failed += bool(found)
    print(f"{failed} of the pins failed" if failed else "every pin passed")
    sys.exit(1 if failed else 0)
