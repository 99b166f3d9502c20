"""End-to-end command tests driving cli.main in-process, and one import
check in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bwlab import bw, cli, exlat, f2quad, srg

from . import _oracles


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, checks", [
    pytest.param(["verify-paper", "--skip-slow"], 52, id="verify-paper"),
    pytest.param(["lattice", "enumerate", "--lattice", "bw16", "--norm", "4"],
                 1, id="lattice-enumerate"),
    pytest.param(["lattice", "invariants", "--lattice", "bw16"], 5,
                 id="lattice-invariants"),
    pytest.param(["quad", "singular-count", "--space", "h5"], 1,
                 id="quad-singular-count"),
    pytest.param(["quad", "tss", "--space", "h2", "--k", "2"], 1,
                 id="quad-tss"),
    pytest.param(["srg", "perp", "--space", "h2"], 1, id="srg-perp"),
    pytest.param(["srg", "feasible", "--v", "10", "--k", "3"], 1,
                 id="srg-feasible"),
    pytest.param(["orders", "e6", "--q", "2"], 1, id="orders-e6"),
    pytest.param(["orders", "shape", "--shape", "2^{27}.E6(2)", "--sylow",
                  "2"], 2, id="orders-shape"),
    pytest.param(["xrep", "check"], 4, id="xrep-check"),
    pytest.param(["qseries", "t1", "--terms", "3"], 3, id="qseries-t1"),
])
def test_verify_paper_fast_json_and_report_file(argv, checks, tmp_path,
                                                capsys):
    # every command but lattice build writes its --json report to --out
    out = tmp_path / "report.json"
    code, stdout, _ = _run(capsys, *argv, "--json", "--out", str(out))
    assert code == 0
    printed = json.loads(stdout)
    assert printed["version"] == 1
    assert printed["pass"] is True
    assert len(printed["checks"]) == checks
    assert json.loads(out.read_text()) == printed


def _fresh(code, openblas=None):
    """Stdout of code run in a fresh interpreter, which has not loaded the
    tests' own numpy and sympy, with OPENBLAS_NUM_THREADS unset unless
    openblas gives its value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    return out.stdout.strip()


def test_import_loads_neither_sympy_nor_mpmath():
    # importing sympy costs about 0.5 s of start-up and 30 MB
    assert _fresh("import sys, bwlab.cli; "
                  "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"
                  ) == "[]"


def test_cli_import_pins_openblas_to_one_thread():
    # the pin must precede numpy's load, and then OpenBLAS starts no pool
    out = _fresh("import os, sys, bwlab.cli; "
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                 "'numpy' in sys.modules, "
                 "len(os.listdir('/proc/self/task')) "
                 "if os.path.isdir('/proc/self/task') else None)")
    pin, numpy_loaded, threads = out.split()
    assert (pin, numpy_loaded) == ("1", "True")
    if sys.platform.startswith("linux"):
        assert threads == "1"


@pytest.mark.parametrize("code, openblas, seen", [
    pytest.param("import bwlab.cli", "2", "2", id="user-value-kept"),
    pytest.param("import numpy, bwlab.cli", None, "None",
                 id="numpy-first-untouched"),
])
def test_cli_import_leaves_openblas_alone(code, openblas, seen):
    assert _fresh(f"import os; {code}; "
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))",
                  openblas) == seen


def test_package_import_loads_no_numpy():
    # so the console script, python -m bwlab.cli and `import bwlab` then
    # `import bwlab.cli` all reach the pin before numpy loads
    assert _fresh("import sys, bwlab; print('numpy' in sys.modules)"
                  ) == "False"


def test_verify_paper_text_mode(capsys):
    code, stdout, _ = _run(capsys, "verify-paper", "--skip-slow")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("[ok  ]") for line in lines[:-1])


def test_enumerate_count_only(capsys):
    code, stdout, _ = _run(capsys, "lattice", "enumerate", "--lattice",
                           "bw16", "--norm", "4", "--count-only")
    assert code == 0
    assert stdout.strip() == "4320"


def test_lattice_build_writes_basis_not_report(tmp_path, capsys):
    path = tmp_path / "bw16.lat"
    code, stdout, _ = _run(capsys, "lattice", "build", "--lattice", "bw16",
                           "--out", str(path), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    # the file on disk is the basis, not the JSON report
    loaded = exlat.read_lattice(str(path))
    assert len(loaded.mat) == 16
    assert exlat.determinant(exlat.gram(loaded)) == 256


def test_lattice_roundtrip_through_file(tmp_path, capsys):
    path = tmp_path / "bw16.lat"
    _run(capsys, "lattice", "build", "--lattice", "bw16", "--out", str(path))
    code, stdout, _ = _run(capsys, "lattice", "enumerate", "--file",
                           str(path), "--norm", "4", "--count-only")
    assert code == 0
    assert stdout.strip() == "4320"
    code, stdout, _ = _run(capsys, "lattice", "invariants", "--file",
                           str(path))
    assert code == 0
    # the fact names stay short although the path holds a dot
    assert stdout.splitlines() == [
        "rank = 16", "det = 256", "even = True",
        "dual-quotient = (2, 2, 2, 2, 2, 2, 2, 2)", "min-norm = 4"]
    code, stdout, _ = _run(capsys, "lattice", "build", "--file", str(path))
    assert code == 0
    assert stdout.splitlines() == [
        "rank = 16", "den = 2", "frame-scale = 2", "det = 256", "even = True"]


def test_invariants_of_a_scaled_lattice_file(tmp_path, capsys):
    path = tmp_path / "bw16x5.lat"
    exlat.write_lattice(exlat.scale(bw.bw16(), 5), path)
    code, stdout, _ = _run(capsys, "lattice", "invariants", "--file",
                           str(path))
    assert code == 0
    assert "min-norm = 100" in stdout.splitlines()


def test_quad_singular_counts(capsys):
    code, stdout, _ = _run(capsys, "quad", "singular-count", "--space", "h5")
    assert code == 0 and stdout.strip() == "527"
    code, stdout, _ = _run(capsys, "quad", "singular-count", "--space", "e4")
    assert code == 0 and stdout.strip() == "119"


def test_quad_tss_found_and_absent(capsys):
    code, stdout, _ = _run(capsys, "quad", "tss", "--space", "h5", "--k", "5")
    assert code == 0
    assert stdout.strip().startswith("(")
    code, stdout, _ = _run(capsys, "quad", "tss", "--space", "h2", "--k", "3")
    assert code == 0
    assert stdout.strip() == "none"
    # past the Witt index of a minus-type space
    code, stdout, _ = _run(capsys, "quad", "tss", "--space", "e5", "--k", "5")
    assert code == 0
    assert stdout.strip() == "none"


def test_quad_tss_past_the_list_guard_exits_2(monkeypatch, capsys):
    def no_sweep(s):
        raise AssertionError("_q_words called")

    monkeypatch.setattr(f2quad, "_q_words", no_sweep)
    code, stdout, err = _run(capsys, "quad", "tss", "--space", "h13",
                             "--k", "1")
    assert code == 2 and stdout == ""
    assert "exceeds list guard 24" in err


def test_quad_tss_from_a_degenerate_form_file(tmp_path, capsys):
    path = tmp_path / "zero.f2q"
    path.write_text("4\n" + "0 0 0 0\n" * 4)
    code, stdout, _ = _run(capsys, "quad", "tss", "--file", str(path),
                           "--k", "3")
    assert code == 0
    assert stdout.strip() == "(8, 4, 2)"


def test_srg_perp_h2_with_edge_file(tmp_path, capsys):
    # the form file holds x1 x3 + x2 x4, plus type like h2
    form = tmp_path / "plus.f2q"
    form.write_text("4\n0 0 1 0\n0 0 0 1\n0 0 0 0\n0 0 0 0\n")
    for source in (["--space", "h2"], ["--file", str(form)]):
        edges = tmp_path / "h2.edges"
        code, stdout, _ = _run(capsys, "srg", "perp", *source,
                               "--edges-out", str(edges))
        assert code == 0
        assert stdout.strip() == "(9, 4, 1, 2, 1, -2, 4, 4)"
        pairs = [tuple(map(int, line.split()))
                 for line in edges.read_text().splitlines()]
        assert len(pairs) == 18
        rebuilt = _oracles.from_edges(9, pairs)
        params = srg.srg_params(rebuilt)
        assert (params.v, params.k, params.lam, params.mu) == (9, 4, 1, 2)


def test_srg_perp_rejects_degenerate_space(capsys):
    # h1 has two singular vectors, e1 none
    for space in ("h1", "e1"):
        code, stdout, _ = _run(capsys, "srg", "perp", "--space", space)
        assert code == 1
        assert stdout.startswith("not strongly regular")
        assert "too few vertices" in stdout


def test_qseries_t1_terms(capsys):
    code, stdout, _ = _run(capsys, "qseries", "t1")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "q^-4/3: 1"
    assert lines[2] == "q^2/3: 139504"
    assert len(lines) == 6


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["lattice", "enumerate", "--lattice", "bw16"]) == 2
    capsys.readouterr()
    assert cli.main(["lattice", "enumerate", "--lattice", "bw16",
                     "--norm", "4", "--bogus"]) == 2
    capsys.readouterr()
    assert cli.main(["lattice", "enumerate", "--lattice", "bw16",
                     "--norm", "4", "--threads", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["quad", "singular-count", "--space", "x9"]) == 2
    capsys.readouterr()
    for argv in (["qseries", "t1", "--terms", "0"],
                 ["qseries", "t1", "--terms", "x"],
                 ["lattice", "enumerate", "--norm", "abc"],
                 ["quad", "singular-count", "--space", "h0"]):
        assert cli.main(argv) == 2
        capsys.readouterr()


def test_space_past_the_sweep_guard_exits_2_unbuilt(monkeypatch, capsys):
    # hyperbolic(m) holds about m^2 bits, so the half-dimension is
    # checked while parsing, before any form is built
    built = []
    monkeypatch.setattr(f2quad, "hyperbolic", built.append)
    for space in ("h14", "e14", "h1000000"):
        assert cli.main(["quad", "singular-count", "--space", space]) == 2
        assert "space index must be from 1 to 13" in capsys.readouterr().err
    assert built == []
    assert cli._space("h13") == ("h", 13)
    assert cli._space("e1") == ("e", 1)


@pytest.mark.parametrize("argv", [
    ["orders", "shape", "--shape", "2..3"],
    ["lattice", "invariants", "--file", "/nonexistent/x.lat"],
    ["lattice", "enumerate", "--lattice", "bw16", "--norm", "0"],
])
def test_runtime_errors_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("body", ["2 3 1\n1 0 0\n0 1 0\n0 0 1\n",
                                  "2 2 1 1/0\n1 0\n0 1\n"],
                         ids=["extra-row", "zero-frame-denominator"])
def test_malformed_lattice_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.lat"
    path.write_text(body)
    code, _, err = _run(capsys, "lattice", "invariants", "--file", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("body", ["2\n0 1\n0 0 1\n", "2\n0 2\n0 0\n"],
                         ids=["long-row", "entry-2"])
def test_malformed_form_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.f2q"
    path.write_text(body)
    code, _, err = _run(capsys, "quad", "singular-count", "--file", str(path))
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# golden outputs: the exact text lines and the JSON (id, expected, actual,
# pass) list of every leaf command; verify-paper's report is the registry's,
# pinned in test_verify.py.  "{tmp}" stands for the test's directory, which
# holds bw16.lat (BW16's canonical basis) and plus.f2q (x1 x3 + x2 x4).


def _facts(prefix, *pairs):
    """Informational checks: each passes, its expected equal to its actual."""
    return [(f"{prefix}.{name}", str(v), str(v), True) for name, v in pairs]


_BW16_BUILD = [("rank", 16), ("den", 2), ("frame-scale", 2), ("det", 256),
               ("even", True)]
_BW16_INVARIANTS = [("rank", 16), ("det", 256), ("even", True),
                    ("dual-quotient", (2,) * 8), ("min-norm", 4)]
_E6_2 = "2^36·3^6·5^2·7^3·13·17·31·73"
_AUT = "2^63·3^6·5^2·7^3·13·17·31·73"
_NOT_SRG = "NotStronglyRegular(reason='too few vertices', pair=None)"

GOLDEN = [
    (["lattice", "build", "--lattice", "bw16", "--out", "{tmp}/out.lat"], 0,
     [f"{n} = {v}" for n, v in _BW16_BUILD]
     + ["wrote basis to {tmp}/out.lat"],
     _facts("lattice.bw16", *_BW16_BUILD)),
    (["lattice", "build", "--file", "{tmp}/bw16.lat"], 0,
     [f"{n} = {v}" for n, v in _BW16_BUILD],
     _facts("lattice.{tmp}/bw16.lat", *_BW16_BUILD)),
    (["lattice", "enumerate", "--lattice", "bw16", "--norm", "4"], 0,
     ["4320 vectors of norm 4"],
     _facts("lattice.bw16", ("norm-4-count", 4320))),
    (["lattice", "enumerate", "--file", "{tmp}/bw16.lat", "--norm", "4",
      "--count-only"], 0,
     ["4320"],
     _facts("lattice.{tmp}/bw16.lat", ("norm-4-count", 4320))),
    (["lattice", "invariants", "--lattice", "bw16"], 0,
     [f"{n} = {v}" for n, v in _BW16_INVARIANTS],
     _facts("lattice.bw16", *_BW16_INVARIANTS)),
    (["quad", "singular-count", "--space", "e4", "--include-zero"], 0,
     ["120"],
     _facts("quad.e4", ("singular-count", 120))),
    (["quad", "singular-count", "--file", "{tmp}/plus.f2q"], 0,
     ["9"],
     _facts("quad.{tmp}/plus.f2q", ("singular-count", 9))),
    (["quad", "tss", "--space", "h5", "--k", "5"], 0,
     ["(512, 128, 32, 8, 2)"],
     _facts("quad.h5", ("tss-5", (512, 128, 32, 8, 2)))),
    (["quad", "tss", "--space", "h2", "--k", "3"], 0,
     ["none"],
     _facts("quad.h2", ("tss-3", "none"))),
    (["srg", "perp", "--file", "{tmp}/plus.f2q"], 0,
     ["(9, 4, 1, 2, 1, -2, 4, 4)"],
     _facts("srg.{tmp}/plus.f2q", ("params", (9, 4, 1, 2, 1, -2, 4, 4)))),
    (["srg", "perp", "--space", "h1"], 1,
     [f"not strongly regular: {_NOT_SRG}"],
     [("srg.h1.params", "strongly regular", _NOT_SRG, False)]),
    (["srg", "feasible", "--v", "139503", "--k", "4590"], 0,
     ["(lam, mu, r, s, f, g) candidates for v=139503, k=4590: 1",
      "(621, 135, 495, -9, 2482, 137020)"],
     _facts("srg.feasible", ("139503-4590",
                             [(621, 135, 495, -9, 2482, 137020)]))),
    (["orders", "e6", "--q", "2"], 0,
     [_E6_2],
     _facts("orders", ("e6-q2", _E6_2))),
    (["orders", "shape", "--shape", "2^{27}.E6(2)", "--sylow", "2"], 0,
     [_AUT, "2-part: 2^63"],
     _facts("orders.shape", ("2^{27}.E6(2)", _AUT),
            ("2^{27}.E6(2).sylow-2", "2^63"))),
    (["xrep", "check"], 0,
     ["[ok] rep.closure-orders: (8, 32, 128, 512)",
      "[ok] rep.char-norms: (1, 1, 1, 1)",
      "[ok] rep.central-product-norms: (1, 1)",
      "[ok] rep.reducible-control: 4"],
     _facts("rep", ("closure-orders", (8, 32, 128, 512)),
            ("char-norms", (1, 1, 1, 1)), ("central-product-norms", (1, 1)),
            ("reducible-control", 4))),
    (["qseries", "t1", "--terms", "4"], 0,
     ["q^-4/3: 1", "q^-1/3: 0", "q^2/3: 139504", "q^5/3: 69332992"],
     _facts("series.t1", ("q^-4/3", 1), ("q^-1/3", 0), ("q^2/3", 139504),
            ("q^5/3", 69332992))),
]


@pytest.mark.parametrize("argv, code, lines, checks", GOLDEN,
                         ids=["-".join(g[0][:2]) + f"-{i}"
                              for i, g in enumerate(GOLDEN)])
def test_golden_text_and_json(argv, code, lines, checks, tmp_path, capsys):
    exlat.write_lattice(exlat.hnf_basis(bw.bw16()), tmp_path / "bw16.lat")
    (tmp_path / "plus.f2q").write_text(
        "4\n0 0 1 0\n0 0 0 1\n0 0 0 0\n0 0 0 0\n")

    def fill(text):
        return text.replace("{tmp}", str(tmp_path))

    argv = [fill(a) for a in argv]
    got, stdout, _ = _run(capsys, *argv)
    assert (got, stdout.splitlines()) == (code, [fill(x) for x in lines])
    got, stdout, _ = _run(capsys, *argv, "--json")
    report = json.loads(stdout)
    assert got == code
    assert report["pass"] is (code == 0)
    assert [(c["id"], c["expected"], c["actual"], c["pass"])
            for c in report["checks"]] == [
        (fill(i), e, a, p) for i, e, a, p in checks]
