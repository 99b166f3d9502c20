"""Report plumbing: registry shape, schema, determinism, error capture."""

import hashlib
import json
from itertools import groupby

import pytest

from bwlab import verify
from bwlab.verify import Check


SLOW_IDS = {
    "lattice.bw32-kissing",
    "lattice.bw32-min",
    "lattice.bw32-norm4-generates",
    "lattice.similarity32-full",
    "srg.h5-perp",
    "ledger.73440",
}

SCHEMA_KEYS = ["id", "paper_location", "expected", "actual", "pass",
               "runtime_ms"]


@pytest.fixture(scope="module")
def fast_report():
    return verify.run_all(skip_slow=True)


def _strip_volatile(report):
    return [{k: v for k, v in c.items() if k != "runtime_ms"}
            for c in report["checks"]]


def test_fast_report_passes(fast_report):
    assert fast_report["version"] == 1
    assert fast_report["pass"] is True
    assert len(fast_report["checks"]) >= 25
    for c in fast_report["checks"]:
        assert c["pass"] is True, f"{c['id']}: got {c['actual']}"


def test_check_ids_unique_and_schema_exact(fast_report):
    ids = [c["id"] for c in fast_report["checks"]]
    assert len(ids) == len(set(ids))
    for c in fast_report["checks"]:
        assert list(c.keys()) == SCHEMA_KEYS
        assert isinstance(c["runtime_ms"], int)
        assert c["runtime_ms"] >= 0
    assert set(fast_report.keys()) == {"version", "timestamp", "checks",
                                       "pass", "environment"}


def test_registry_counts_and_slow_gating(fast_report):
    all_checks = verify.checks()
    assert len(all_checks) == 58
    assert {c.id for c in all_checks if c.slow} == SLOW_IDS
    fast_ids = {c["id"] for c in fast_report["checks"]}
    assert len(fast_report["checks"]) == 52
    assert fast_ids.isdisjoint(SLOW_IDS)
    assert fast_ids == {c.id for c in all_checks if not c.slow}


# sha256 of the ordered [id, paper_location, expected, slow] of every check
REGISTRY_SHA256 = (
    "5a7dfae541b1f55bbafe097321cd69f7b66c96e3b1e3464c8a7aec1f5291da2d")
MODULE_GROUPS = [("code", 2), ("lattice", 19), ("quad", 7), ("srg", 3),
                 ("orders", 6), ("rep", 4), ("series", 5), ("ledger", 12)]


def test_registry_order_pinned():
    all_checks = verify.checks()
    rows = [[c.id, c.paper_location, c.expected, c.slow] for c in all_checks]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == REGISTRY_SHA256
    groups = [(module, len(list(run))) for module, run in
              groupby(c.id.split(".")[0] for c in all_checks)]
    assert groups == MODULE_GROUPS


def test_full_report_passes_in_registry_order():
    # the release sweep, slow checks included: 58 rows, all passing
    report = verify.run_all(skip_slow=False)
    assert [c["id"] for c in report["checks"]] \
        == [c.id for c in verify.checks()]
    assert len(report["checks"]) == 58
    assert [c["id"] for c in report["checks"] if not c["pass"]] == []
    assert report["pass"] is True


def test_report_deterministic_modulo_timing(fast_report):
    again = verify.run_all(skip_slow=True)
    assert _strip_volatile(again) == _strip_volatile(fast_report)
    assert again["version"] == fast_report["version"]
    assert again["pass"] == fast_report["pass"]


def test_run_check_stringifies_actual():
    ok = verify.run_check(Check("t.int", "n/a", "4", lambda: 4))
    assert ok["pass"] and ok["actual"] == "4"
    tup = verify.run_check(Check("t.tuple", "n/a", "(1, 2)", lambda: (1, 2)))
    assert tup["pass"]


def test_run_check_captures_exceptions():
    def boom():
        raise ZeroDivisionError("division by zero")

    res = verify.run_check(Check("t.boom", "n/a", "1", boom))
    assert not res["pass"]
    assert res["actual"] == "error: ZeroDivisionError: division by zero"
    assert res["runtime_ms"] >= 0


def test_ledger_checks_fast_and_full():
    ledger = [c for c in verify.checks() if c.id.startswith("ledger.")]
    assert len(ledger) == 12
    fast = [verify.run_check(c) for c in ledger if not c.slow]
    assert len(fast) == 11
    assert all(r["pass"] for r in fast)


def test_make_report_flags_failure():
    good = verify.result("a", "n/a", "1", "1")
    bad = verify.result("b", "n/a", "1", "2")
    report = verify.make_report([good, bad])
    assert report["pass"] is False
    assert [c["pass"] for c in report["checks"]] == [True, False]


def test_report_environment_block(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = verify.make_report([])["environment"]
    assert list(env) == ["python", "numpy", "cpu_count",
                         "openblas_num_threads"]
    assert isinstance(env["python"], str) and env["python"][0].isdigit()
    assert isinstance(env["numpy"], str) and env["numpy"][0].isdigit()
    assert env["cpu_count"] is None or (isinstance(env["cpu_count"], int)
                                        and env["cpu_count"] >= 1)
    assert env["openblas_num_threads"] is None
    # the value at report time, not at import time
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert verify.make_report([])["environment"]["openblas_num_threads"] == "3"
    json.dumps(env)


def test_render_text_marks_failures():
    good = verify.result("a.ok", "n/a", "1", "1", 3)
    bad = verify.result("b.bad", "n/a", "1", "2", 5)
    text = verify.render_text(verify.make_report([good, bad]))
    lines = text.splitlines()
    assert lines[0].startswith("[ok  ]")
    assert lines[1].startswith("[FAIL]")
    assert "got 2" in lines[1]
    assert lines[-1] == "1/2 checks passed"


def test_result_builds_report_row():
    d = verify.result("x", "1.1", "7", "7", 9)
    assert d == {"id": "x", "paper_location": "1.1", "expected": "7",
                 "actual": "7", "pass": True, "runtime_ms": 9}
