"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcurve
from qcurve import cli
from qcurve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partitions_row_counts(capsys):
    code, out = run(capsys, "partitions", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 3

    code, out = run(capsys, "partitions", "8", "--format", "json")
    assert len(json.loads(out)) == 22


def test_partitions_empty(capsys):
    code, out = run(capsys, "partitions", "0", "--format", "json")
    rows = json.loads(out)
    assert rows == [{"partition": "[]", "z": 1, "aut": 1, "kappa": 0, "dim": 1}]


def test_partitions_text_table(capsys):
    code, out = run(capsys, "partitions", "4")
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[1].startswith("[4]")


# ---------------------------------------------------------------------------
# hurwitz
# ---------------------------------------------------------------------------

def test_hurwitz_contains_known_values(capsys):
    code, out = run(capsys, "hurwitz", "--dmax", "2", "--gmax", "0", "--format", "json")
    assert code == 0
    rows = {(r["genus"], r["partition"]): r["value"] for r in json.loads(out)}
    assert rows[(0, "[2]")] == "1/2"
    assert rows[(0, "[1]")] == "1"


def test_hurwitz_genus_column(capsys):
    code, out = run(capsys, "hurwitz", "--dmax", "1", "--gmax", "2", "--format", "json")
    rows = {(r["genus"], r["partition"]): r["value"] for r in json.loads(out)}
    assert rows[(1, "[1]")] == "0"
    assert rows[(2, "[1]")] == "0"


def test_hurwitz_csv_quotes_partitions(capsys):
    code, out = run(capsys, "hurwitz", "--dmax", "2", "--gmax", "0", "--format", "csv")
    assert out.splitlines()[0] == "genus,partition,value"
    assert '"[1,1]"' in out


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_malformed_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--dmx", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-curve", "--case", "c3", "--threads", "2"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_lambert_framing_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zclosed", "--case", "lambert", "--framing", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-curve", "--case", "lambert", "--framing", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--", "-1"],
        ["hurwitz", "--dmax", "0"],
        ["verify-curve", "--case", "c3", "--xorder", "-1"],
        ["recurrence", "--case", "c3", "--xorder", "0"],
        ["verify-curve", "--case", "c3", "--y-direction", "inverse"],
        ["verify-curve", "--case", "lambert", "--y-direction", "inverse"],
        ["selftest", "--golden-dir", "no/such/golden/dir"],
        ["selftest", "--golden-dir", __file__],
    ],
)
def test_out_of_range_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # reported with the subcommand's usage line, not the top-level one
    assert capsys.readouterr().err.startswith(f"usage: qcurve {argv[0]} ")


# ---------------------------------------------------------------------------
# zclosed
# ---------------------------------------------------------------------------

def test_zclosed_json_schema(capsys):
    code, out = run(
        capsys, "zclosed", "--case", "c3", "--framing", "1", "--xorder", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["case"] == "c3"
    assert payload["framing"] == 1
    assert [c["degree"] for c in payload["coefficients"]] == [0, 1, 2, 3]
    assert payload["coefficients"][0]["text"] == "1"
    for c in payload["coefficients"]:
        assert set(c["value"]) == {"num", "den"}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_zclosed_rows_match_library_values(capsys, fmt):
    from qcurve.curves import framed_c3, z_closed

    code, out = run(
        capsys, "zclosed", "--case", "c3", "--framing", "1", "--xorder", "3",
        "--format", fmt,
    )
    assert code == 0
    if fmt == "csv":
        rows = [(r["degree"], r["coefficient"]) for r in csv.DictReader(io.StringIO(out))]
    else:
        header, *lines = out.splitlines()
        assert header.split() == ["degree", "coefficient"]
        rows = [tuple(line.split(None, 1)) for line in lines]
    series = z_closed(framed_c3(1), 3)
    assert [int(n) for n, _ in rows] == [0, 1, 2, 3]
    for n, text in rows:
        assert text.strip() == str(series.coeff(int(n)))


def test_zclosed_json_round_trips_to_library_values(capsys):
    from qcurve.curves import conifold, z_closed
    from qcurve.ring import RatFun

    code, out = run(
        capsys, "zclosed", "--case", "conifold", "--framing", "2",
        "--xorder", "4", "--format", "json",
    )
    payload = json.loads(out)
    series = z_closed(conifold(2), 4)
    for entry in payload["coefficients"]:
        assert RatFun.from_json(entry["value"]) == series.coeff(entry["degree"])


# ---------------------------------------------------------------------------
# verify-curve
# ---------------------------------------------------------------------------

def test_verify_lambert_exit_zero(capsys):
    code, out = run(
        capsys, "verify-curve", "--case", "lambert", "--xorder", "10",
        "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["status"] == "annihilated"
    assert report["framing"] is None
    assert report["first_failure"] is None


def test_verify_conifold_forward_all_framings(capsys):
    code, out = run(
        capsys, "verify-curve", "--case", "conifold", "--xorder", "6",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["framing"] for r in reports] == list(range(-3, 4))
    assert all(r["status"] == "annihilated" for r in reports)


def test_verify_conifold_inverse_fails(capsys):
    code, out = run(
        capsys, "verify-curve", "--case", "conifold", "--framing", "1",
        "--xorder", "6", "--y-direction", "inverse", "--format", "json",
    )
    assert code == 1
    (report,) = json.loads(out)
    assert report["status"] == "failed"
    assert report["first_failure"]["degree"] == 1
    assert report["first_failure"]["coefficient"]


# ---------------------------------------------------------------------------
# recurrence and cutjoin commands
# ---------------------------------------------------------------------------

def test_recurrence_command(capsys):
    code, out = run(
        capsys, "recurrence", "--case", "conifold", "--framing", "2",
        "--xorder", "8", "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["ok"] is True


def test_cutjoin_command(capsys):
    code, out = run(
        capsys, "cutjoin-check", "--dmax", "3", "--lam-order", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["first_mismatch"] is None


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out = run(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [s["name"] for s in payload["suites"]]
    assert "route-equivalence" in names and "golden-files" in names
    assert all(s["ok"] for s in payload["suites"])


def test_selftest_fault_injection(capsys, monkeypatch):
    monkeypatch.setenv("QCURVE_FAULT_INJECT", "1")
    code, out = run(capsys, "selftest", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    failed = [s for s in payload["suites"] if not s["ok"]]
    assert failed and failed[0]["name"] == "route-equivalence"


def test_selftest_missing_golden_dir(capsys, tmp_path):
    code, out = run(capsys, "selftest", "--json", "--golden-dir", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    golden = [s for s in payload["suites"] if s["name"] == "golden-files"]
    assert golden and not golden[0]["ok"]


def test_selftest_corrupted_golden_reports_failure(capsys, tmp_path):
    from qcurve.selftest import write_golden_files

    write_golden_files(tmp_path)
    (tmp_path / "partitions_n6.json").write_text("{broken")
    code, out = run(capsys, "selftest", "--json", "--golden-dir", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    golden = [s for s in payload["suites"] if s["name"] == "golden-files"][0]
    assert not golden["ok"] and "JSONDecodeError" in golden["detail"]


def test_write_golden_files_matches_shipped_files(tmp_path):
    from qcurve.selftest import GOLDEN, default_golden_dir, write_golden_files

    write_golden_files(tmp_path)
    shipped = default_golden_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN)
    assert sorted(p.name for p in shipped.glob("*.json")) == sorted(GOLDEN)
    for name in GOLDEN:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_public_names_resolve():
    import qcurve

    for name in qcurve.__all__:
        assert hasattr(qcurve, name), name


# ---------------------------------------------------------------------------
# determinism and --out
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(capsys):
    _, out1 = run(capsys, "hurwitz", "--dmax", "3", "--gmax", "1", "--format", "json")
    _, out2 = run(capsys, "hurwitz", "--dmax", "3", "--gmax", "1", "--format", "json")
    assert out1 == out2
    _, p1 = run(capsys, "partitions", "6", "--format", "csv")
    _, p2 = run(capsys, "partitions", "6", "--format", "csv")
    assert p1 == p2


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out = run(
        capsys, "partitions", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())) == 5


@pytest.mark.parametrize("target", ["missing/report.json", "."])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-curve", "--case", "conifold", "--xorder", "2"],
        ["selftest"],
        ["partitions", "3"],
    ],
)
def test_unwritable_out_exits_2_before_work(capsys, tmp_path, monkeypatch, argv, target):
    def no_work(*args, **kwargs):
        raise AssertionError("the computation ran before --out was checked")

    monkeypatch.setattr(cli, "verify_annihilation", no_work)
    monkeypatch.setattr(cli, "run_selftest", no_work)
    monkeypatch.setattr(cli, "partitions_payload", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qcurve {argv[0]} ")
    assert "--out" in err


# ---------------------------------------------------------------------------
# python -m qcurve
# ---------------------------------------------------------------------------

def _python(*args):
    src = str(Path(qcurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_python_m_qcurve_matches_main(capsys):
    argv = ["partitions", "3", "--format", "json"]
    proc = _python("-m", "qcurve", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


def test_import_does_not_load_main_module():
    proc = _python("-c", "import sys, qcurve; print('qcurve.__main__' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr
