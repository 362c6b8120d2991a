#!/usr/bin/env python3
"""One sha256 over what `charmarch check` and `charmarch analyze` print.

For each seed, the check-batch corpus that perfbench/gensys.py draws (the
1500 definition texts the benchmark writes), then every built-in example:
`cli.main` runs in this process on each system, `check` then `analyze`, and
the digest takes in each run's command, system, exit code, stdout and
stderr.  Two source trees whose reports agree byte for byte print the same
digest, so a change that must not move any output is checked by running
this against both trees' `src/`:

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
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))

from charmarch import builtin, cli  # noqa: E402
import gensys  # noqa: E402
from workloads import CHECK_BATCH_SIZE  # noqa: E402

COMMANDS = ("check", "analyze")


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
    """(sha256 hex digest, number of runs) over the corpora of `seeds`
    and the built-in examples."""
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
                     f"systems each, and {len(builtin.EXAMPLES)} "
                     f"built-in example(s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
