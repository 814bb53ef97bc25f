"""Golden run: the same logergodic invocations under a base and a tree, compared byte for byte.

    python tools/golden.py [--base REV | --base-tree DIR] [--tree DIR]
                           [--expect-change NAME ...] [--report PATH]

Each line `ID: ARGS` of the list (default tools/golden.txt) runs as
`python -m logergodic.cli --out o ARGS` twice, each time in a fresh
directory: once with the base's src/ on PYTHONPATH and once with the tree's
(default: this working tree).  The base src/ comes from `git archive REV src`
(default HEAD), extracted into a temporary directory, which works offline and
writes nothing to .git; --base-tree takes src/ from a directory instead.

The two runs are compared on the exit code, stdout, the last stderr line,
whether `o` exists, and the SHA-256 of every file under `o`, manifest.json
included.  One row per invocation is printed and a JSON report written.  The
exit code is 1 when a difference is not named by --expect-change, either as
ID (any difference of that invocation) or as ID/ITEM, where ITEM is a file
under `o` or one of exit_code, stdout, stderr, out_exists.

A placeholder {input:SEED:STEPS} in ARGS becomes the path of a seeded GBM
price CSV of STEPS steps, made once per run by
`python perfbench/workloads.py SEED PATH STEPS`, and {file:NAME} the absolute
path of the committed file tools/golden_inputs/NAME, for inputs that no seed
makes; both sides read the same file.  Every placeholder is resolved before
the first invocation runs, so an unknown NAME stops the run at once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUT = re.compile(r"\{input:(\d+):(\d+)\}")
FILE = re.compile(r"\{file:([^{}]*)\}")
FILES = ROOT / "tools" / "golden_inputs"
ITEMS = ("exit_code", "stdout", "stderr", "out_exists")
TIMEOUT_S = 600  # per invocation and per generated input


def read_list(path: Path) -> list[tuple[str, str]]:
    """The (ID, ARGS) pairs of a list file; blank lines and # comments are skipped."""
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ident, sep, args = line.partition(":")
        if not sep or not ident.strip():
            sys.exit(f"{path}: {line!r} is not `ID: ARGS`")
        entries.append((ident.strip(), args.strip()))
    ids = [ident for ident, _ in entries]
    if len(set(ids)) != len(ids):
        sys.exit(f"{path}: duplicate ids {sorted({i for i in ids if ids.count(i) > 1})}")
    return entries


def extract_src(rev: str, dest: Path) -> Path:
    """src/ of a git revision, extracted under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev} src failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def expand_inputs(args: str, inputs: Path) -> list[str]:
    """ARGS split as a shell would, each {input:SEED:STEPS} replaced by its generated
    CSV's path and each {file:NAME} by its committed file's path."""
    def generated(match: re.Match) -> str:
        seed, steps = match.groups()
        csv = inputs / f"gbm_seed{seed}_{steps}.csv"
        if not csv.exists():
            subprocess.run([sys.executable, "-B", str(ROOT / "perfbench" / "workloads.py"),
                            seed, str(csv), steps], check=True, timeout=TIMEOUT_S)
        return shlex.quote(str(csv))

    def committed(match: re.Match) -> str:
        path = FILES / match.group(1)
        if path.parent != FILES or not path.is_file():
            sys.exit(f"{match.group(0)}: there is no file {match.group(1)!r} in {FILES}")
        return shlex.quote(str(path))
    return shlex.split(FILE.sub(committed, INPUT.sub(generated, args)))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(src: Path, args: list[str], cwd: Path) -> dict:
    """One CLI invocation in the fresh directory cwd, which is removed afterwards."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        proc = subprocess.run([sys.executable, "-m", "logergodic.cli", "--out", "o", *args],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = None, "", f"timed out after {TIMEOUT_S} s"
    out = cwd / "o"
    files = {p.relative_to(out).as_posix(): sha256(p)
             for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}
    result = {"exit_code": code, "stdout": stdout,
              "stderr": (stderr.strip().splitlines() or [""])[-1],
              "out_exists": out.exists(), "files": files}
    shutil.rmtree(cwd)
    return result


def differences(base: dict, tree: dict) -> list[str]:
    diff = [item for item in ITEMS if base[item] != tree[item]]
    return diff + [name for name in sorted(base["files"].keys() | tree["files"].keys())
                   if base["files"].get(name) != tree["files"].get(name)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base_group = ap.add_mutually_exclusive_group()
    base_group.add_argument("--base", default="HEAD", metavar="REV",
                            help="git revision whose src/ is the base (default HEAD)")
    base_group.add_argument("--base-tree", type=Path, metavar="DIR",
                            help="directory whose src/ is the base, instead of a revision")
    ap.add_argument("--tree", type=Path, default=ROOT, metavar="DIR",
                    help="directory whose src/ is compared with the base (default: this tree)")
    ap.add_argument("--list", type=Path, default=ROOT / "tools" / "golden.txt")
    ap.add_argument("--expect-change", nargs="*", default=[], metavar="NAME",
                    help="an ID or ID/ITEM whose difference is declared")
    ap.add_argument("--report", type=Path, default=Path("golden_report.json"))
    opts = ap.parse_args(argv)

    entries = read_list(opts.list)
    expected = set(opts.expect_change)
    unknown = {name for name in expected if name.split("/")[0] not in dict(entries)}
    if unknown:
        sys.exit(f"--expect-change names no invocation of {opts.list}: {sorted(unknown)}")
    tree_src = opts.tree.resolve() / "src"
    if not (tree_src / "logergodic" / "cli.py").is_file():
        sys.exit(f"{opts.tree} has no src/logergodic/cli.py")

    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        if opts.base_tree is not None:
            base_src, base_label = opts.base_tree.resolve() / "src", str(opts.base_tree)
        else:
            base_src, base_label = extract_src(opts.base, work), opts.base
        (work / "inputs").mkdir()
        argvs = [expand_inputs(args, work / "inputs") for _, args in entries]
        invocations = []
        for (ident, args), argv_ in zip(entries, argvs):
            base = run(base_src, argv_, work / "base" / ident)
            tree = run(tree_src, argv_, work / "tree" / ident)
            diff = differences(base, tree)
            unexpected = [d for d in diff
                          if ident not in expected and f"{ident}/{d}" not in expected]
            status = "DIFFERS" if unexpected else "expected" if diff else "same"
            print(f"{status:<8}  {ident:<24}  {', '.join(diff)}", flush=True)
            invocations.append({"id": ident, "args": args, "status": status,
                                "differences": diff, "unexpected": unexpected,
                                "base": base, "tree": tree})

    counts = {s: sum(inv["status"] == s for inv in invocations)
              for s in ("same", "expected", "DIFFERS")}
    opts.report.write_text(json.dumps({
        "base": base_label, "tree": str(opts.tree), "list": str(opts.list),
        "expect_change": sorted(expected),
        "summary": counts, "invocations": invocations}, indent=2) + "\n")
    print(f"{len(invocations)} invocation(s): {counts['same']} same, {counts['expected']} with "
          f"declared changes only, {counts['DIFFERS']} with undeclared differences; "
          f"report {opts.report}")
    return 1 if counts["DIFFERS"] else 0


if __name__ == "__main__":
    sys.exit(main())
