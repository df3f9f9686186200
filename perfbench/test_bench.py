"""The benchmark's own tests.  They run the real workloads, so they are slow
(a few minutes); run them with

    python3 -m pytest perfbench/test_bench.py -q

from the root of a checkout.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace):
    """One pass (or one traced pair) of a workload; returns the result line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_is_green(workload):
    result = bench(workload, 7, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = bench(workload, 3, trace=1), bench(workload, 3, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in ("count", "ratio")}
    assert exact == {name: second["metrics"][name]["value"] for name in exact}


def test_recorded_digest_matches_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "nlie.cli", "paper-suite", "--seed", "0", "--json"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    digest = workloads.report_digest(json.loads(out.stdout))
    assert digest == workloads.EXPECTED["paper-suite"]["0"]


def test_tracer_wraps_every_alias_and_restores():
    nlie = workloads.import_nlie()
    from nlie import analysis, brackets, groebner, poly, quotient
    sites = {
        "buchberger": [(nlie, "buchberger"), (groebner, "buchberger"),
                       (analysis, "buchberger"), (quotient, "buchberger")],
        "mul": [(poly.Polynomial, "__mul__"), (poly.Polynomial, "__rmul__")],
    }
    before = {key: [vars(c)[k] for c, k in where] for key, where in sites.items()}
    verifiers = dict(brackets.VERIFIERS)
    create = vars(quotient.QuotientContext)["create"]
    tracer = layers.Tracer(timed=True)
    with tracer.installed():
        for key, where in sites.items():
            for (container, attr), old in zip(where, before[key]):
                assert vars(container)[attr] is not old, (container, attr)
        assert all(brackets.VERIFIERS[k] is not v for k, v in verifiers.items())
        assert vars(quotient.QuotientContext)["create"] is not create
        x, y = nlie.context("x", "y").gens()
        assert 2 * x * y == x * (2 * y)
        nlie.buchberger([x * x - y, x * y - 1])
    for key, where in sites.items():
        assert [vars(c)[k] for c, k in where] == before[key]
    assert brackets.VERIFIERS == verifiers
    assert vars(quotient.QuotientContext)["create"] is create
    assert tracer.calls["poly.mul"] >= 3
    assert tracer.calls["groebner.buchberger"] == 1
    assert tracer.counts["groebner.buchberger.steps"] > 0
