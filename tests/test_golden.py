"""The golden-run harness (tools/golden.py) against copies of this tree's src/.

Hashes depend on the platform, so no stored digest is compared here: a tree
against a copy of itself must show no difference, and a copy with one changed
output digit must show exactly the file that holds it.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tools" / "golden.py"


def golden(tmp_path: Path, listing: str, base: Path, tree: Path, *extra: str):
    list_path = tmp_path / "golden.txt"
    list_path.write_text(listing)
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(GOLDEN), "--base-tree", str(base), "--tree", str(tree),
         "--list", str(list_path), "--report", str(report), *extra],
        capture_output=True, text=True, timeout=600)
    return proc, json.loads(report.read_text())


@pytest.fixture
def copy(tmp_path) -> Path:
    dest = tmp_path / "copy"
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_tree_against_its_copy_shows_no_difference(tmp_path, copy):
    listing = ("# a comment\n\nprice-point: price --taus 0.5 --zs 0.05 --xs 100\n"
               "trade-input: --format json trade --input {input:7:1000}\n")
    proc, report = golden(tmp_path, listing, copy, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [(inv["id"], inv["status"]) for inv in report["invocations"]] == [
        ("price-point", "same"), ("trade-input", "same")]
    trade = report["invocations"][1]["tree"]
    assert trade["exit_code"] == 0 and "manifest.json" in trade["files"]


def test_changed_output_digit_shows_exactly_that_file(tmp_path, copy):
    pricing = copy / "src" / "logergodic" / "pricing.py"
    text = pricing.read_text()
    assert text.count("_PDE_NODES = 2000\n") == 1
    pricing.write_text(text.replace("_PDE_NODES = 2000\n", "_PDE_NODES = 2002\n"))
    listing = "price-point: price --taus 0.5 --zs 0.05 --xs 100\n"

    proc, report = golden(tmp_path, listing, ROOT, copy)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    [inv] = report["invocations"]
    assert inv["status"] == "DIFFERS"
    assert inv["differences"] == ["pricing_sweep.csv"]

    proc, report = golden(tmp_path, listing, ROOT, copy,
                          "--expect-change", "price-point/pricing_sweep.csv")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report["summary"] == {"same": 0, "expected": 1, "DIFFERS": 0}


def test_file_placeholder_is_the_committed_file(tmp_path):
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tie = ROOT / "tools" / "golden_inputs" / "tie.csv"
    assert tie.is_file() and tie.is_absolute()
    assert module.expand_inputs("trade --input {file:tie.csv} --eps 0", tmp_path) == [
        "trade", "--input", str(tie), "--eps", "0"]


@pytest.mark.parametrize("name", ["nope.csv", "../golden.py", ""])
def test_unknown_file_placeholder_stops_the_run_naming_it(tmp_path, name):
    list_path = tmp_path / "golden.txt"
    list_path.write_text("price-point: price --taus 0.5 --zs 0.05 --xs 100\n"
                         f"trade-file: trade --input {{file:{name}}}\n")
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(GOLDEN), "--base-tree", str(ROOT), "--list", str(list_path),
         "--report", str(report)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert f"{{file:{name}}}: there is no file {name!r} in" in proc.stderr
    # resolved before the first invocation runs
    assert proc.stdout == "" and not report.exists()
