"""The statement-verification harness and its report formats."""

import importlib
import json

import pytest

from splitlab import (
    PointResult,
    UnknownStatement,
    Verdict,
    VerificationJob,
    default_grid,
    emit,
    statement_ids,
)
from splitlab import verify as run

verify_mod = importlib.import_module("splitlab.verify")

ALL_IDS = (
    "BCSCC", "CHAIN", "ELEMSPLIT", "ENDO_SSC", "GENBB", "IFC", "LOWER_BOUND",
    "M2_THEOREM", "NILPOTENT", "NOBASES", "PFC", "PSSC", "PVRC",
    "SPLITANDBASES", "SSC", "WEAK_SSC",
)


def test_statement_ids():
    assert tuple(sorted(statement_ids())) == ALL_IDS


def test_default_grids_are_nonempty():
    for sid in statement_ids():
        grid = default_grid(sid)
        assert grid, sid
        assert all(isinstance(p, tuple) for p in grid)


def test_every_statement_verifies_on_its_default_grid():
    for sid in statement_ids():
        verdict = run(VerificationJob(sid))
        assert verdict.exit_code() == 0, sid
        assert verdict.mismatches == 0, sid
        assert verdict.skipped == 0, sid
        assert verdict.matches == len(verdict.points), sid


def test_unknown_statement():
    with pytest.raises(UnknownStatement):
        run(VerificationJob("NOPE"))


def test_points_come_back_sorted():
    verdict = run(VerificationJob("SSC", grid=((2, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2))))
    assert [p.params for p in verdict.points] == [(2, 1, 2), (2, 2, 1), (2, 2, 2)]


def test_bound_errors_become_skips(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "5")
    verdict = run(VerificationJob("SSC", grid=((2, 2, 2),)))
    point = verdict.points[0]
    assert point.verdict == "skipped"
    assert point.brute is None
    assert "bound" in point.note
    assert verdict.exit_code() == 0
    assert verdict.skipped == 1


def test_malformed_point_is_rejected():
    from splitlab import BadArgs

    with pytest.raises(BadArgs):
        run(VerificationJob("SSC", grid=((2, 2),)))


def test_exit_codes():
    ok = PointResult((2, 2, 2), 20, 20, "proved", "match", None)
    bad_proved = PointResult((2, 2, 2), 19, 20, "proved", "mismatch", None)
    bad_conj = PointResult((2, 3, 2), 1, 2, "conjectural", "mismatch", None)
    skip = PointResult((2, 2, 2), None, None, "proved", "skipped", None)
    assert Verdict("SSC", 0, (ok, skip), 0.0).exit_code() == 0
    assert Verdict("SSC", 0, (ok, bad_proved), 0.0).exit_code() == 1
    assert Verdict("SSC", 0, (ok, bad_conj), 0.0).exit_code() == 2
    assert Verdict("SSC", 0, (bad_conj, bad_proved), 0.0).exit_code() == 1


def test_seed_is_echoed():
    verdict = run(VerificationJob("NILPOTENT", seed=99))
    assert verdict.seed == 99
    payload = json.loads(emit(verdict, "json", timing=False))
    assert payload["seed"] == 99


def test_json_schema_and_summary(tmp_path):
    verdict = run(VerificationJob("SSC", grid=((2, 1, 2), (2, 2, 2))))
    text = emit(verdict, "json", dest=str(tmp_path / "out.json"), timing=False)
    payload = json.loads((tmp_path / "out.json").read_text())
    assert json.loads(text) == payload
    assert payload["schema"] == "splitlab/1"
    assert payload["statement"] == "SSC"
    assert payload["summary"] == {
        "points": 2,
        "matches": 2,
        "mismatches": 0,
        "skipped": 0,
        "exit_code": 0,
    }
    assert payload["points"][0]["params"] == [2, 1, 2]
    assert payload["points"][0]["brute"] == 3
    assert "seconds" not in payload["points"][0]


def test_json_without_timing_is_reproducible():
    a = emit(run(VerificationJob("M2_THEOREM")), "json", timing=False)
    b = emit(run(VerificationJob("M2_THEOREM")), "json", timing=False)
    assert a == b


def test_json_with_timing_has_seconds():
    payload = json.loads(emit(run(VerificationJob("M2_THEOREM")), "json"))
    assert "seconds" in payload["summary"]
    assert all("seconds" in p for p in payload["points"])


def test_csv_format():
    verdict = run(VerificationJob("SSC", grid=((2, 1, 2), (2, 2, 2))))
    lines = emit(verdict, "csv", timing=False).splitlines()
    assert lines[0] == "statement,params,brute,formula,status,verdict,seconds"
    assert lines[1] == 'SSC,"2,1,2",3,3,proved,match,'
    assert lines[2] == 'SSC,"2,2,2",20,20,proved,match,'


def test_text_format():
    verdict = run(VerificationJob("NOBASES", grid=((2, 2),)))
    text = emit(verdict, "text", timing=False)
    assert text.startswith("NOBASES: 1 points, 1 match")
    assert "(2,2)" in text


def test_emit_rejects_unknown_format():
    from splitlab import BadArgs

    verdict = run(VerificationJob("NOBASES", grid=((2, 2),)))
    with pytest.raises(BadArgs):
        emit(verdict, "yaml")


def test_emit_bad_destination():
    from splitlab import IoError

    verdict = run(VerificationJob("NOBASES", grid=((2, 2),)))
    with pytest.raises(IoError):
        emit(verdict, "json", dest="/no/such/dir/out.json")


def test_conjectural_grid_point_is_reported_but_not_proved():
    verdict = run(VerificationJob("SSC", grid=((2, 3, 2),)))
    point = verdict.points[0]
    assert point.status == "conjectural"
    assert point.verdict == "match"
    assert point.brute == point.formula == 576
    assert verdict.exit_code() == 0


def test_weak_ssc_point_shape():
    grid = ((2, 2, 2, 1, 1, 0, 1, 0),)
    verdict = run(VerificationJob("WEAK_SSC", grid=grid))
    assert verdict.points[0].verdict == "match"
    assert verdict.points[0].params == grid[0]


def test_endo_point_shape():
    verdict = run(VerificationJob("ENDO_SSC", grid=((2, 1, 1, 1),)))
    point = verdict.points[0]
    assert point.verdict == "match"
    assert point.brute == 3  # x^2 + x + 1 over F_2
