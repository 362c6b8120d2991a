#!/usr/bin/env python3
"""One sha256 over what `charmarch check` and `charmarch analyze` print,
and over the marches of the README and of CI.

For each seed, the check-batch corpus that perfbench/gensys.py draws (the
1500 definition texts the benchmark writes), then every built-in example:
`cli.main` runs in this process on each system, `check` then `analyze`.
Then the march commands: the `solve` and `verify-estimate` commands of the
README's CLI section, and the Maxwell `solve` of the CI smoke step.  The
digest takes in each run's command, system, exit code, stdout and stderr.
Two source trees whose outputs agree byte for byte print the same digest,
so a change that must not move any output is checked by running this
against both trees' `src/`:

    PYTHONPATH=src python scripts/check_digest.py --seeds 1,7

The digest is the one line on stdout; the number of runs goes to stderr.
A warning that the environment turns into an error (PYTHONWARNINGS=
error::RuntimeWarning) ends the script with a traceback, as cli.main does
not catch it.
"""
import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import re
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from charmarch import builtin, cli  # noqa: E402
import gensys  # noqa: E402
from workloads import CHECK_BATCH_SIZE  # noqa: E402

COMMANDS = ("check", "analyze")
# the CI smoke step's march of Maxwell's equations, run from ROOT
MAXWELL = "tests/data/maxwell3d.txt"
MAXWELL_SOLVE = ["solve", "--input", MAXWELL, "--nx", "64", "--cells", "16,4",
                 "--q0", "sine:amp=0.8,k=2,ky=1,zero,zero,zero",
                 "--w0", "sine:amp=1.2,k=1,kz=1,zero"]


def marches():
    """(label, argv) of each march command: the README CLI section's
    `solve` and `verify-estimate` commands (continuations joined, comments
    dropped, `charmarch` stripped), then MAXWELL_SOLVE.  The label is the
    command as written; argv finds MAXWELL in ROOT."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block, = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [shlex.split(line, comments=True)[1:]
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in lines
                if argv and argv[0] in ("solve", "verify-estimate")]
    commands.append(MAXWELL_SOLVE)
    return [(" ".join(argv), [str(ROOT / a) if a == MAXWELL else a
                              for a in argv]) for argv in commands]


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _update(h, *parts):
    """Each part, length-prefixed, so that no two sequences collide."""
    for part in parts:
        data = str(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)


def digest(seeds, count):
    """(sha256 hex digest, number of runs) over the corpora of `seeds`,
    the built-in examples and the march commands."""
    h = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.txt")
        sources = [(f"seed {seed} #{i}", text) for seed in seeds
                   for i, text in enumerate(gensys.generate(seed, count))]
        sources += [(f"example {name}", None) for name in builtin.EXAMPLES]
        for label, text in sources:
            if text is None:
                where = ["--example", label.split(" ", 1)[1]]
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                where = ["--input", path]
            for command in COMMANDS:
                _update(h, command, label, *_run([command, *where]))
                runs += 1
    for label, argv in marches():
        _update(h, label, *_run(argv))
        runs += 1
    return h.hexdigest(), runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1",
                    help="comma-separated corpus seeds (default 1)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    hexdigest, runs = digest(seeds, CHECK_BATCH_SIZE)
    print(hexdigest)
    sys.stderr.write(f"{runs} runs: seeds {args.seeds}, {CHECK_BATCH_SIZE} "
                     f"systems each, {len(builtin.EXAMPLES)} built-in "
                     f"example(s) and {len(marches())} march command(s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
