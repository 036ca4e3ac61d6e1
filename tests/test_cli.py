"""Command-line interface: formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcurve
from qcurve import cli
from qcurve.cli import main
from qcurve.curves import conifold, framed_c3
from qcurve.selftest import GOLDEN, json_text, zclosed_payload


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
        ["hurwitz", "--dmax", "2", "--gmax", "-1"],
        ["zclosed", "--case", "c3", "--xorder", "-1"],
        ["cutjoin-check", "--dmax", "-1"],
    ],
)
def test_out_of_range_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # reported with the subcommand's usage line, not the top-level one
    assert capsys.readouterr().err.startswith(f"usage: qcurve {argv[0]} ")


_ABOVE_CAPS = [
    (["zclosed", "--case", "c3"], "--xorder", cli.XORDER_MAX),
    (["verify-curve", "--case", "conifold"], "--xorder", cli.XORDER_MAX),
    (["recurrence", "--case", "lambert"], "--xorder", cli.XORDER_MAX),
    (["hurwitz", "--gmax", "1"], "--dmax", cli.DMAX_MAX),
    (["hurwitz", "--dmax", "2"], "--gmax", cli.GMAX_MAX),
    (["cutjoin-check"], "--dmax", cli.DMAX_MAX),
    (["hurwitz"], "--dmax", cli.DMAX_MAX),
    (["zclosed", "--case", "conifold"], "--framing", cli.FRAMING_MAX),
    (["verify-curve", "--case", "conifold"], "--framing", cli.FRAMING_MAX),
    (["recurrence", "--case", "c3"], "--framing", cli.FRAMING_MAX),
]
_FRAMING_CAPS = [c for c in _ABOVE_CAPS if c[1] == "--framing"]


@pytest.mark.parametrize("argv,flag,cap", _ABOVE_CAPS)
def test_sizes_above_their_caps_exit_2_before_work(capsys, monkeypatch, argv, flag, cap):
    def no_work(*args, **kwargs):
        raise AssertionError("the computation ran before the cap was checked")

    for name in ("zclosed_payload", "verify_annihilation", "recurrence_check",
                 "hurwitz_payload", "verify_cut_and_join"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(cap + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qcurve {argv[0]} ")
    assert f"{flag} {cap + 1} exceeds the cap {cap}" in err


@pytest.mark.parametrize("argv,flag,cap", _ABOVE_CAPS)
def test_sizes_at_their_caps_are_accepted(argv, flag, cap):
    args = cli.build_parser().parse_args([*argv, flag, str(cap)])
    cli._validate(args)  # no usage error


@pytest.mark.parametrize("argv,flag,cap", _FRAMING_CAPS)
def test_framings_below_minus_the_cap_exit_2(capsys, monkeypatch, argv, flag, cap):
    def no_work(*args, **kwargs):
        raise AssertionError("the computation ran before the cap was checked")

    for name in ("zclosed_payload", "verify_annihilation", "recurrence_check"):
        monkeypatch.setattr(cli, name, no_work)
    # a multi-value --framing is rejected when any one value is beyond the cap
    values = [str(-cap - 1)] if argv[0] == "zclosed" else ["1", str(-cap - 1), "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, *values])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qcurve {argv[0]} ")
    assert f"{flag} {-cap - 1} exceeds the cap {cap}" in err


@pytest.mark.parametrize("argv,flag,cap", _FRAMING_CAPS)
def test_framings_at_minus_the_cap_are_accepted(argv, flag, cap):
    args = cli.build_parser().parse_args([*argv, flag, str(-cap)])
    cli._validate(args)  # no usage error


def test_readme_states_every_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = " ".join(readme.split()).split("Sizes are capped: ", 1)[1].split(". ", 1)[0]
    stated = {f: int(c) for f, c in re.findall(r"`([^`]+)` at most (\d+)", sentence)}
    flags = {
        name: "partitions N" if name == "PARTITIONS_MAX"
        else "--" + name.removesuffix("_MAX").lower().replace("_", "-")
        for name in vars(cli) if name.endswith("_MAX")
    }
    assert "--framing" in flags.values()
    assert stated == {flags[name]: getattr(cli, name) for name in flags}


def test_partitions_above_the_cap_exits_2_before_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the partitions were listed before the cap was checked")

    monkeypatch.setattr(cli, "partitions_payload", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["partitions", str(cli.PARTITIONS_MAX + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcurve partitions ")
    assert "n 41 exceeds the cap 40" in err


def test_partitions_at_the_cap_is_accepted():
    args = cli.build_parser().parse_args(["partitions", str(cli.PARTITIONS_MAX)])
    cli._validate(args)  # no usage error


def test_every_int_argument_has_a_recorded_bound():
    for name, p in _subparsers().items():
        sized = [a for a in p._actions if a.type is int]
        flags = {flag for flag, _, _ in p.get_default("sizes")}
        assert {(a.option_strings or [a.dest])[0] for a in sized} == flags, name
        assert all("at most" in a.help for a in sized), name


def test_lambert_framing_zero_is_accepted_only_as_a_single_value(capsys):
    # zclosed's single --framing defaults to 0, so an explicit 0 is no framing;
    # the multi-value --framing of verify-curve and recurrence rejects any list
    code, _ = run(capsys, "zclosed", "--case", "lambert", "--framing", "0", "--xorder", "2")
    assert code == 0
    for command in ("verify-curve", "recurrence"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--case", "lambert", "--framing", "0"])
        assert exc.value.code == 2
        assert "the lambert case has no framing parameter" in capsys.readouterr().err


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_USAGE = {
    "partitions":
        "usage: qcurve partitions [-h] [--format {text,json,csv}] [--out OUT] n\n",
    "hurwitz":
        "usage: qcurve hurwitz [-h] --dmax DMAX [--gmax GMAX]\n"
        "                      [--format {text,json,csv}] [--out OUT]\n",
    "zclosed":
        "usage: qcurve zclosed [-h] --case {lambert,c3,conifold} [--framing FRAMING]\n"
        "                      [--xorder XORDER] [--format {text,json,csv}] [--out OUT]\n",
    "verify-curve":
        "usage: qcurve verify-curve [-h] --case {lambert,c3,conifold}\n"
        "                           [--framing FRAMING [FRAMING ...]] [--xorder XORDER]\n"
        "                           [--y-direction {forward,inverse}]\n"
        "                           [--format {text,json}] [--out OUT]\n",
    "recurrence":
        "usage: qcurve recurrence [-h] --case {lambert,c3,conifold}\n"
        "                         [--framing FRAMING [FRAMING ...]] [--xorder XORDER]\n"
        "                         [--format {text,json}] [--out OUT]\n",
    "cutjoin-check":
        "usage: qcurve cutjoin-check [-h] [--dmax DMAX] [--format {text,json}]\n"
        "                            [--out OUT]\n",
    "selftest":
        "usage: qcurve selftest [-h] [--json] [--golden-dir GOLDEN_DIR] [--out OUT]\n",
}


def test_usage_lines_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    assert {name: p.format_usage() for name, p in _subparsers().items()} == _USAGE


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


def _listed(value):
    """value with every iterator (and tuple) read into a list."""
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, Iterator)):
        return [_listed(v) for v in value]
    return value


def _fresh(spec):
    """spec with each tuple made a new iterator over its items."""
    if isinstance(spec, dict):
        return {k: _fresh(v) for k, v in spec.items()}
    if isinstance(spec, tuple):
        return iter([_fresh(v) for v in spec])
    return spec


_keys = st.text(max_size=3)
_plain_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=6,
)
# a tuple stands for an iterator: in a dict or in another iterator
_lazy_json = st.recursive(
    _plain_json,
    lambda inner: st.dictionaries(_keys, inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple),
    max_leaves=12,
)


@settings(deadline=None)
@given(_lazy_json)
@example({"a": ({}, (), [], "x\ny"), "b": [1, {"c": []}]})
def test_json_chunks_are_the_bytes_of_json_dumps(spec):
    assert json_text(_fresh(spec)) == json.dumps(_listed(spec), indent=2) + "\n"


@pytest.mark.parametrize("build", [
    *GOLDEN.values(), lambda: zclosed_payload(conifold(1), 12),
    lambda: zclosed_payload(framed_c3(-2), 0),
])
def test_streamed_payloads_are_the_bytes_of_json_dumps(build):
    assert json_text(build()) == json.dumps(_listed(build()), indent=2) + "\n"


def test_zclosed_payload_builds_one_coefficient_at_a_time(monkeypatch):
    from qcurve.ring import RatFun

    calls = []
    to_json = RatFun.to_json
    monkeypatch.setattr(RatFun, "to_json", lambda self: calls.append(1) or to_json(self))
    coefficients = zclosed_payload(conifold(1), 6)["coefficients"]
    assert calls == []
    assert next(coefficients)["degree"] == 0 and calls == [1]
    assert next(coefficients)["degree"] == 1 and calls == [1, 1]


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


@pytest.mark.parametrize("command", ["verify-curve", "recurrence"])
def test_a_repeated_framing_flag_adds_its_values(capsys, command):
    code, out = run(
        capsys, command, "--case", "c3", "--framing", "1", "--framing", "2",
        "--xorder", "2", "--format", "json",
    )
    assert code == 0
    assert [r["framing"] for r in json.loads(out)] == [1, 2]


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
        capsys, "cutjoin-check", "--dmax", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["first_mismatch"] is None


def test_lam_order_is_no_longer_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cutjoin-check", "--lam-order", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lam-order 4" in capsys.readouterr().err


@pytest.mark.parametrize("argv, extras", [
    (["cutjoin-check", "--bogus", "4"], "--bogus 4"),
    (["hurwitz", "--dmax", "3", "extra"], "extra"),
])
def test_unrecognized_arguments_are_reported_under_the_subcommand(capsys, argv, extras):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qcurve {argv[0]} ")
    assert err.endswith(f"qcurve {argv[0]}: error: unrecognized arguments: {extras}\n")


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
# pinned verification output (millis masked)
# ---------------------------------------------------------------------------

_SUITES = [
    "character-orthogonality", "cutjoin-eigenvalue", "cutjoin-equation",
    "hurwitz-elsv", "specializations", "route-equivalence", "annihilation",
    "classical-limits", "golden-files",
]
_ROUTE_FAULT = "routes disagree for lambert framing 0"
_INVERSE_U1 = "(1)*u^-1 + (1)*u^1 + (-1)*Qh^2*u^-1 + (-1)*Qh^2*u^1"


def _mask_millis(text):
    text = re.sub(r"\([0-9.]+ms\)", "(0ms)", text)
    return re.sub(r'"millis": [0-9.eE+-]+', '"millis": 0', text)


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _annihilation(case, framing, order, y, failure=None):
    return {
        "case": case, "framing": framing, "order": order, "y_direction": y,
        "status": "annihilated" if failure is None else "failed",
        "first_failure": failure, "millis": 0,
    }


def _selftest_json(fault):
    return {
        "ok": not fault,
        "suites": [
            {
                "name": name,
                "ok": not (fault and name == "route-equivalence"),
                "detail": _ROUTE_FAULT if fault and name == "route-equivalence" else "ok",
                "millis": 0,
            }
            for name in _SUITES
        ],
    }


def _selftest_text(fault):
    lines = [
        f"FAIL  {name}  (0ms)  {_ROUTE_FAULT}"
        if fault and name == "route-equivalence" else f"PASS  {name}  (0ms)"
        for name in _SUITES
    ]
    lines.append("selftest: FAILURES" if fault else "selftest: all suites passed")
    return "\n".join(lines) + "\n"


_PINNED = [
    (["verify-curve", "--case", "conifold", "--framing", "1", "--xorder", "4"], 0,
     "conifold framing=1 order=4 y=forward: annihilated (0ms)\n"),
    (["verify-curve", "--case", "lambert", "--xorder", "3"], 0,
     "lambert framing=- order=3 y=forward: annihilated (0ms)\n"),
    (["verify-curve", "--case", "c3", "--framing", "-1", "2", "--xorder", "3",
      "--format", "json"], 0,
     _json([_annihilation("c3", -1, 3, "forward"), _annihilation("c3", 2, 3, "forward")])),
    (["verify-curve", "--case", "conifold", "--framing", "1", "--xorder", "2",
      "--y-direction", "inverse"], 1,
     "conifold framing=1 order=2 y=inverse: failed (0ms)  first failure at x^1\n"),
    (["verify-curve", "--case", "conifold", "--framing", "1", "--xorder", "2",
      "--y-direction", "inverse", "--format", "json"], 1,
     _json([_annihilation("conifold", 1, 2, "inverse",
                          {"degree": 1, "coefficient": _INVERSE_U1})])),
    (["recurrence", "--case", "c3", "--framing", "-1", "2", "--xorder", "4"], 0,
     "c3 framing=-1 order=4: ok\nc3 framing=2 order=4: ok\n"),
    (["recurrence", "--case", "lambert", "--xorder", "4", "--format", "json"], 0,
     _json([{"case": "lambert", "framing": None, "order": 4, "ok": True,
             "first_failure": None}])),
    (["cutjoin-check", "--dmax", "3"], 0,
     "cut-and-join through degree 3, every lam order: holds\n"),
    (["cutjoin-check", "--dmax", "3", "--format", "json"], 0,
     _json({"degree_cap": 3, "ok": True,
            "coefficients_checked": 12, "first_mismatch": None})),
    (["selftest"], 0, _selftest_text(False)),
    (["selftest", "--json"], 0, _json(_selftest_json(False))),
]


@pytest.mark.parametrize("argv,code,expected", _PINNED)
def test_verification_output_is_pinned(capsys, argv, code, expected):
    got_code, out = run(capsys, *argv)
    assert (got_code, _mask_millis(out)) == (code, expected)


@pytest.mark.parametrize("argv,expected", [
    (["selftest"], _selftest_text(True)),
    (["selftest", "--json"], _json(_selftest_json(True))),
])
def test_fault_injected_selftest_output_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("QCURVE_FAULT_INJECT", "1")
    code, out = run(capsys, *argv)
    assert (code, _mask_millis(out)) == (1, expected)


_INVERSE_TEXT = "".join(
    f"conifold framing={a} order=12 y=inverse: failed (0ms)  first failure at x^1\n"
    for a in range(-3, 4)
)
_INVERSE_JSON = _json([
    _annihilation("conifold", a, 12, "inverse", {"degree": 1, "coefficient": _INVERSE_U1})
    for a in range(-3, 4)
])


@pytest.mark.parametrize("fmt,expected", [("text", _INVERSE_TEXT), ("json", _INVERSE_JSON)])
def test_inverse_control_over_the_default_framings_is_pinned(capsys, fmt, expected):
    # the failing degrees are tested for zero without being normalized;
    # the report still prints the degree-1 failure of each framing
    code, out = run(capsys, "verify-curve", "--case", "conifold", "--xorder", "12",
                    "--y-direction", "inverse", "--format", fmt)
    assert (code, _mask_millis(out)) == (1, expected)


def _failing_recurrence(case, order):
    from qcurve.curves import RecurrenceReport

    return RecurrenceReport(case.label(), case.framing, order, False, 3)


@pytest.mark.parametrize("fmt,expected", [
    ("text", "c3 framing=2 order=5: fails at n=3\n"),
    ("json", _json([{"case": "c3", "framing": 2, "order": 5, "ok": False,
                     "first_failure": 3}])),
])
def test_failing_recurrence_output_is_pinned(capsys, monkeypatch, fmt, expected):
    monkeypatch.setattr(cli, "recurrence_check", _failing_recurrence)
    code, out = run(capsys, "recurrence", "--case", "c3", "--framing", "2",
                    "--xorder", "5", "--format", fmt)
    assert (code, out) == (1, expected)


def _failing_cut_and_join(degree_cap):
    from qcurve.hurwitz import CutJoinReport

    return CutJoinReport(degree_cap, False, 7, ((2, 1), "(1/2)*E^2", "(1/3)*E^2"))


@pytest.mark.parametrize("fmt,expected", [
    ("text", "cut-and-join through degree 3, every lam order: fails: {'partition': "
             "'[2, 1]', 'lhs': '(1/2)*E^2', 'rhs': '(1/3)*E^2'}\n"),
    ("json", _json({"degree_cap": 3, "ok": False,
                    "coefficients_checked": 7,
                    "first_mismatch": {"partition": "[2, 1]",
                                       "lhs": "(1/2)*E^2", "rhs": "(1/3)*E^2"}})),
])
def test_failing_cutjoin_output_is_pinned(capsys, monkeypatch, fmt, expected):
    monkeypatch.setattr(cli, "verify_cut_and_join", _failing_cut_and_join)
    code, out = run(capsys, "cutjoin-check", "--dmax", "3", "--format", fmt)
    assert (code, out) == (1, expected)


_CONIFOLD_1 = [
    "1",
    "((1)*u^1 + (-1)*Qh^2*u^1) / (-1 + (1)*u^2)",
    "((1)*u^6 + (-1)*Qh^2*u^4 + (-1)*Qh^2*u^6 + (1)*Qh^4*u^4) / "
    "(1 + (-1)*u^2 + (-1)*u^4 + (1)*u^6)",
    "((-1)*Qh^2*u^11 + (1)*Qh^4*u^9 + (1)*u^15 + (-1)*Qh^2*u^13 + (1)*Qh^4*u^11 "
    "+ (-1)*Qh^6*u^9 + (-1)*Qh^2*u^15 + (1)*Qh^4*u^13) / "
    "(-1 + (1)*u^2 + (1)*u^4 + (-1)*u^8 + (-1)*u^10 + (1)*u^12)",
]

_TABLES = [
    (["partitions", "4"], "text",
     "partition  z   aut  kappa  dim\n"
     "[4]        4   1    12     1  \n"
     "[3,1]      3   1    4      3  \n"
     "[2,2]      8   2    0      2  \n"
     "[2,1,1]    4   2    -4     3  \n"
     "[1,1,1,1]  24  24   -12    1  \n"),
    (["partitions", "4"], "csv",
     "partition,z,aut,kappa,dim\n"
     "[4],4,1,12,1\n"
     '"[3,1]",3,1,4,3\n'
     '"[2,2]",8,2,0,2\n'
     '"[2,1,1]",4,2,-4,3\n'
     '"[1,1,1,1]",24,24,-12,1\n'),
    (["hurwitz", "--dmax", "3", "--gmax", "1"], "text",
     "genus  partition  value\n"
     "0      [1]        1    \n"
     "0      [2]        1/2  \n"
     "0      [1,1]      1/2  \n"
     "0      [3]        1    \n"
     "0      [2,1]      4    \n"
     "0      [1,1,1]    4    \n"
     "1      [1]        0    \n"
     "1      [2]        1/2  \n"
     "1      [1,1]      1/2  \n"
     "1      [3]        9    \n"
     "1      [2,1]      40   \n"
     "1      [1,1,1]    40   \n"),
    (["hurwitz", "--dmax", "3", "--gmax", "1"], "csv",
     "genus,partition,value\n"
     "0,[1],1\n"
     "0,[2],1/2\n"
     '0,"[1,1]",1/2\n'
     "0,[3],1\n"
     '0,"[2,1]",4\n'
     '0,"[1,1,1]",4\n'
     "1,[1],0\n"
     "1,[2],1/2\n"
     '1,"[1,1]",1/2\n'
     "1,[3],9\n"
     '1,"[2,1]",40\n'
     '1,"[1,1,1]",40\n'),
    # the widest coefficient is 185 characters, so every line is 193 wide
    (["zclosed", "--case", "conifold", "--framing", "1", "--xorder", "3"], "text",
     "degree  " + "coefficient".ljust(185) + "\n"
     + "".join(f"{n:<6}  {c:<185}\n" for n, c in enumerate(_CONIFOLD_1))),
    (["zclosed", "--case", "conifold", "--framing", "1", "--xorder", "3"], "csv",
     "degree,coefficient\n" + "".join(f"{n},{c}\n" for n, c in enumerate(_CONIFOLD_1))),
]


@pytest.mark.parametrize("argv,fmt,expected", _TABLES)
def test_table_output_is_pinned(capsys, tmp_path, argv, fmt, expected):
    assert run(capsys, *argv, "--format", fmt) == (0, expected)
    target = tmp_path / "table"
    assert run(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "")
    assert target.read_text() == expected


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

def _python(*args, **env):
    src = str(Path(qcurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_fault_injected_selftest_process_is_pinned():
    proc = _python("-m", "qcurve", "selftest", "--json", QCURVE_FAULT_INJECT="1")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert _mask_millis(proc.stdout) == _json(_selftest_json(True))


def test_python_m_qcurve_matches_main(capsys):
    argv = ["partitions", "3", "--format", "json"]
    proc = _python("-m", "qcurve", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


def test_import_does_not_load_main_module():
    proc = _python("-c", "import sys, qcurve; print('qcurve.__main__' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr
