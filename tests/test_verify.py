"""Report plumbing: registry shape, schema, determinism, error capture."""

import pytest

from bwlab import verify
from bwlab.verify import Check, CheckResult


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
                                       "pass"}


def test_registry_counts_and_slow_gating(fast_report):
    registry = verify.build_registry()
    all_checks = [c for checks in registry.values() for c in checks]
    assert len(all_checks) == 58
    assert {c.id for c in all_checks if c.slow} == SLOW_IDS
    fast_ids = {c["id"] for c in fast_report["checks"]}
    assert len(fast_report["checks"]) == 52
    assert fast_ids.isdisjoint(SLOW_IDS)
    assert fast_ids == {c.id for c in all_checks if not c.slow}


def test_report_deterministic_modulo_timing(fast_report):
    again = verify.run_all(skip_slow=True)
    assert _strip_volatile(again) == _strip_volatile(fast_report)
    assert again["version"] == fast_report["version"]
    assert again["pass"] == fast_report["pass"]


def test_run_check_stringifies_actual():
    ok = verify.run_check(Check("t.int", "n/a", "4", lambda: 4))
    assert ok.passed and ok.actual == "4"
    tup = verify.run_check(Check("t.tuple", "n/a", "(1, 2)", lambda: (1, 2)))
    assert tup.passed


def test_run_check_captures_exceptions():
    def boom():
        raise ZeroDivisionError("division by zero")

    res = verify.run_check(Check("t.boom", "n/a", "1", boom))
    assert not res.passed
    assert res.actual == "error: ZeroDivisionError: division by zero"
    assert res.runtime_ms >= 0


def test_empty_module_registry_rejected(monkeypatch):
    monkeypatch.setattr(verify, "build_registry",
                        lambda: {"code": []})
    with pytest.raises(RuntimeError):
        verify.run_all()


def test_ledger_checks_fast_and_full():
    ledger = verify.build_registry()["ledger"]
    assert len(ledger) == 12
    fast = [verify.run_check(c) for c in ledger if not c.slow]
    assert len(fast) == 11
    assert all(r.passed for r in fast)


def test_make_report_flags_failure():
    good = CheckResult("a", "n/a", "1", "1", True, 0)
    bad = CheckResult("b", "n/a", "1", "2", False, 0)
    report = verify.make_report([good, bad])
    assert report["pass"] is False
    assert [c["pass"] for c in report["checks"]] == [True, False]


def test_render_text_marks_failures():
    good = CheckResult("a.ok", "n/a", "1", "1", True, 3)
    bad = CheckResult("b.bad", "n/a", "1", "2", False, 5)
    text = verify.render_text(verify.make_report([good, bad]))
    lines = text.splitlines()
    assert lines[0].startswith("[ok  ]")
    assert lines[1].startswith("[FAIL]")
    assert "got 2" in lines[1]
    assert lines[-1] == "1/2 checks passed"


def test_as_dict_translates_passed_key():
    res = CheckResult("x", "1.1", "7", "7", True, 9)
    d = res.as_dict()
    assert d == {"id": "x", "paper_location": "1.1", "expected": "7",
                 "actual": "7", "pass": True, "runtime_ms": 9}
