"""The README's command-line examples, run in-process through
`streamfec.cli.main` so the `cli` layer is covered once per run.

The equivalence check runs with `--support-bound 4` (176 patterns): the
README's full sweep is the 18 726-pattern criterion-3 space, about a
minute of decoding, which the error-sweep workload already samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path
from time import perf_counter

from streamfec import cli

# (label, argv with {dir} for the working directory, file the command writes)
COMMANDS = (
    ("construct-mds", "construct --mds 5 3 --gf 8 --out {dir}/code53.json", "code53.json"),
    ("construct-multi-burst", "construct --multi-burst 4 2 2 --gf 8 --out {dir}/code84.json", "code84.json"),
    ("verify-code", "verify-code --descriptor {dir}/code84.json --tau 6 --bursts 2 2", None),
    (
        "simulate",
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw:2,5 --pattern {dir}/pattern.csv "
        "--horizon 10 --seed 7",
        None,
    ),
    ("bounds", "bounds --grid z=1..3 b=1..3 w=5..12", None),
    ("enumerate-patterns", "enumerate-patterns --model mbsw:2,2,7 --horizon 10 --count-only", None),
    ("equivalence-check", "equivalence-check --a 1 --w 5 --gf 8 --support-bound 4", None),
    ("search-nonexistence", "search-nonexistence --n 9 --k 5 --z 2 --b 2 --tau 7 --gf 2", None),
)


def run_readme(workdir: Path) -> tuple[dict[str, str], list[str], float]:
    """Run every command in `workdir`; returns (digest of each command's
    stdout and written file, failure messages, seconds taken)."""
    (workdir / "pattern.csv").write_text("1,1,0,0,1\n", encoding="utf-8")
    digests: dict[str, str] = {}
    failures: list[str] = []
    t0 = perf_counter()
    for label, spec, written in COMMANDS:
        argv = spec.format(dir=workdir).split()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback from the CLI is a failed command
            failures.append(f"cli {label} raised {exc!r}")
            continue
        if code:
            failures.append(f"cli {label} exited with {code}")
            continue
        text = out.getvalue()
        if written is not None:
            text += (workdir / written).read_text(encoding="utf-8")
        digests[label] = hashlib.sha256(text.encode()).hexdigest()
    return digests, failures, perf_counter() - t0
