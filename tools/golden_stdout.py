"""Hash the stdout and exit codes of the golden CLI command set.

Usage::

    python3 tools/golden_stdout.py [--src DIR] [--list]

Rebuilds the 2610 golden commands, runs each in-process through
``preflogic.cli.main`` and prints one sha256 over every command's exit
code, a newline and its stdout, in order.  Two source trees print the same
hash exactly when they give byte-identical stdout and exit codes on the
whole set.  ``--src`` picks the source tree to import (default: this
checkout's ``src``); ``--list`` prints the commands instead.

The set runs twice in the same process and the hash is of the first pass.
If the second pass differs, state left behind by earlier calls (the shared
argument parser, the package's memos) changed an output: the tool names
the first command that differs on stderr and exits 1.

The set is:

- every command of the ``catalog-cli`` benchmark block 0 for seeds 7 and
  4242 (decompile, compile, eval, entail, catalog and lattice commands on
  every catalog entry and alias);
- for each entailing pair of catalog entries and for the full two-atom
  bounds, ``lattice`` with and without ``--include-trivial``, each as
  text, ``--dot``, ``--format json`` and ``--format dot``;
- ``--format json decompile --loss NAME`` with and without
  ``--reference``, for every catalog entry and alias;
- ``decompile --loss EQ`` with and without ``--reference`` for two
  14-atom equations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WIDE_EQUATIONS = (
    "p(theta,yw)^4*p(ref,yl)^3 / (p(theta,yl)^4*p(ref,yw)^3)",
    "p(theta,yw)^3*p(ref,yl)^2*p(mref,yl)^2 / (p(theta,yl)^3*p(ref,yw)^2*p(mref,yw)^2)",
)


def golden_commands(pl, workdir: str) -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    wl = workloads.CatalogCli(pl, workdir)
    commands = []
    for seed in (7, 4242):
        block = wl.block(workloads.rng_for(seed, wl.name, 0), 0)
        commands += [argv for _, argv, _ in block]
    (lower, _), (upper, _) = wl.bounds
    for lo, hi in wl.entailing + [(lower, upper)]:
        for trivial in ([], ["--include-trivial"]):
            base = ["lattice", "--lower", lo, "--upper", hi] + trivial
            commands += [base, base + ["--dot"], ["--format", "json"] + base,
                         ["--format", "dot"] + base]
    for name in wl.names:
        for reference in ([], ["--reference"]):
            commands.append(["--format", "json", "decompile", "--loss", name] + reference)
    for text in WIDE_EQUATIONS:
        for reference in ([], ["--reference"]):
            commands.append(["decompile", "--loss", text] + reference)
    return commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree holding the preflogic package")
    parser.add_argument("--list", action="store_true", help="print the commands, not the hash")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import preflogic as pl
    import preflogic.cli

    with tempfile.TemporaryDirectory() as workdir:
        commands = golden_commands(pl, workdir)
        if args.list:
            for command in commands:
                print(" ".join(command))
            return 0
        first, second = run_all(preflogic.cli.main, commands), run_all(preflogic.cli.main, commands)
    digest = hashlib.sha256()
    for record in first:
        digest.update(record.encode())
    print(f"{len(commands)} commands, sha256 {digest.hexdigest()}")
    for command, a, b in zip(commands, first, second):
        if a != b:
            print(f"second pass differs from the first at: {' '.join(command)}", file=sys.stderr)
            return 1
    return 0


def run_all(main, commands) -> list[str]:
    """Each command's exit code, a newline and its stdout, run in-process in order."""
    records = []
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(command)
        records.append(f"{rc}\n{out.getvalue()}")
    return records


if __name__ == "__main__":
    raise SystemExit(main())
