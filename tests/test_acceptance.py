"""Acceptance gate: one test per shipped criterion, with runtime bounds.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and enforces the criterion's wall-clock budget.  The batteries come from
nlie.suite so the gate exercises exactly what `nlie paper-suite` runs;
criterion 9 drives the installed CLI end to end.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

import nlie
from nlie import suite

SCHEMA = json.loads(
    (Path(nlie.__file__).parent / "schemas" / "report.schema.json").read_text())

# Digest of the seed-0 paper-suite report recorded by the benchmark.
EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text())


def report_digest(doc):
    """sha256 of a CLI JSON report with every item's `seconds` removed."""
    data = dict(doc["data"])
    data["items"] = [{k: v for k, v in item.items() if k != "seconds"}
                     for item in data["items"]]
    text = json.dumps(dict(doc, data=data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_battery(n, label, items, bound, per_item_bound=None):
    start = time.monotonic()
    results = suite.run_suite(items)
    elapsed = time.monotonic() - start
    failed = [r for r in results if not r.passed]
    ok = not failed and elapsed < bound
    if per_item_bound is not None:
        slow = [r for r in results if r.seconds >= per_item_bound]
        ok = ok and not slow
    print(f"{'PASS' if ok else 'FAIL'} criterion {n} ({label}): "
          f"{len(results)} items, {elapsed:.2f}s [< {bound}s]")
    assert not failed, [(r.item_id, r.details) for r in failed]
    assert elapsed < bound, f"criterion {n} took {elapsed:.2f}s"
    if per_item_bound is not None:
        assert all(r.seconds < per_item_bound for r in results), \
            [(r.item_id, r.seconds) for r in results]
    return results


def test_criterion_1_bracket_tables():
    entries = (len(suite._SL2_TABLE) + len(suite._ELLIPTIC1_TABLE)
               + sum(len(t) for t in suite._QUADRIC_TABLES.values())
               + len(suite._MALCEV_CANONICAL_TABLE)
               + len(suite._MALCEV_ABG235_TABLE)
               + len(suite._MALCEV_SPLIT_TABLE))
    assert entries >= 40
    run_battery(1, "bracket tables", suite.items_bracket_tables(), 1.0)


def test_criterion_2_identity_battery():
    run_battery(2, "identities, 100 trials", suite.items_identities(0), 30.0)


def test_criterion_3_ternary_constants_and_reduction():
    run_battery(3, "split ternary constants + quotient identity",
                suite.items_quotient_constants(), 1.0)


def test_criterion_4_casimir_centrality():
    run_battery(4, "Casimir centrality", suite.items_casimir(), 5.0)


def test_criterion_5_roots_and_closedness():
    run_battery(5, "planted roots + closedness", suite.items_roots(0), 30.0)


def test_criterion_6_grading():
    run_battery(6, "grading residues + lifts", suite.items_grading(0), 30.0)


def test_criterion_7_saturation():
    run_battery(7, "saturation probes", suite.items_saturation(0),
                1200.0, per_item_bound=120.0)


def test_criterion_8_center_probes():
    run_battery(8, "center probes", suite.items_center(0), 60.0)


def test_criterion_9_cli_contract():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "nlie.cli", "paper-suite", "--seed", "0",
         "--json"],
        capture_output=True, text=True)
    elapsed = time.monotonic() - start
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    ok = proc.returncode == 0 and doc["ok"] is True and doc["data"]["failed"] == 0
    print(f"{'PASS' if ok else 'FAIL'} criterion 9 (CLI contract): "
          f"{doc['data']['total']} items, exit {proc.returncode}, "
          f"schema valid, {elapsed:.2f}s")
    assert proc.returncode == 0
    assert doc["ok"] is True and doc["data"]["failed"] == 0
    assert doc["data"]["seed"] == 0
    # byte-identical apart from `seconds`
    assert report_digest(doc) == EXPECTED["paper-suite"]["0"]
