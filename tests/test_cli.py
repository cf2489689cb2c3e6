"""Command line entry points, exercised through main(argv)."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitlab import lfsr, splitting
from splitlab.cli import main
from splitlab.verify import statement_ids


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qbinom(capsys):
    code, out, err = run(capsys, "qbinom", "4", "2", "2")
    assert code == 0
    assert out.strip() == "35"


def test_count_splitting_json(capsys):
    code, out, _ = run(capsys, "count-splitting", "--q", "2", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"] == 20
    assert payload["formula"] == 20
    assert payload["verdict"] == "match"
    assert "seconds" in payload


def test_count_splitting_no_timing_is_deterministic(capsys):
    args = ("count-splitting", "--q", "2", "--m", "2", "--n", "2", "--no-timing")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "seconds" not in json.loads(first)


def test_count_splitting_text_format(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "2", "--n", "2",
        "--format", "text", "--no-timing",
    )
    assert code == 0
    assert "brute=20" in out
    assert "formula=20" in out
    assert "defining_poly=1,0,0,1,1" in out


def test_count_splitting_explicit_poly_and_alpha(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "2", "--n", "2",
        "--poly", "1,1,0,0,1", "--alpha", "0,1,0,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defining_poly"] == "1,1,0,0,1"
    assert payload["brute"] == 20


def test_count_splitting_pointed(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "2", "--n", "2",
        "--pointed", "1,1,0,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pointed_x"] == "1,1,0,0"
    assert payload["pointed_brute"] == 4
    assert payload["pointed_formula"] == 4
    assert payload["pointed_verdict"] == "match"


def test_count_splitting_formula_only(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "3", "--n", "2",
        "--formula-only",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"] is None
    assert payload["formula"] == 576
    assert payload["verdict"] == "skipped"


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--statement", "SSC", "--grid", "2,1,2;2,2,2",
        "--format", "csv", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "statement,params,brute,formula,verdict,seconds"
    assert lines[1] == 'SSC,"2,1,2",3,3,match,'


def test_verify_json_reproducible(capsys):
    args = ("verify", "--statement", "NILPOTENT", "--no-timing")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["summary"]["exit_code"] == 0


def test_verify_every_statement(capsys):
    for sid in ("SSC", "GENBB", "PVRC", "CHAIN"):
        code, out, _ = run(capsys, "verify", "--statement", sid, "--format", "text")
        assert code == 0, sid
        assert "0 mismatch" in out


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "--statement", "WAT")
    assert code == 3
    assert err.startswith("error:")


def test_verify_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--statement", "NOBASES", "--out", str(dest), "--no-timing",
    )
    assert code == 0
    payload = json.loads(dest.read_text())
    assert payload["schema"] == "splitlab/2"
    assert payload["summary"]["mismatches"] == 0


def test_verify_ssc_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--statement", "SSC", "--format", "text", "--no-timing",
    )
    assert code == 0
    assert out.startswith("SSC:")
    assert "0 mismatch" in out


def test_verify_seed_is_echoed(capsys):
    code, out, _ = run(
        capsys, "verify", "--statement", "NOBASES", "--seed", "5", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_coprime_census_both(capsys):
    code, out, _ = run(
        capsys, "coprime-census", "--q", "2", "--n1", "2", "--n2", "2",
        "--method", "both",
    )
    assert code == 0
    assert out.splitlines() == ["closed 7", "brute 7", "verdict match"]


def test_coprime_census_single_method(capsys):
    code, out, _ = run(
        capsys, "coprime-census", "--q", "3", "--n1", "3", "--n2", "2",
        "--method", "brute",
    )
    assert code == 0
    assert out.strip() == "80"


def test_nilpotent_census(capsys):
    code, out, _ = run(capsys, "nilpotent-census", "3", "2", "--method", "both")
    assert code == 0
    assert out.splitlines() == ["closed 64", "brute 64", "verdict match"]


def test_singer_census(capsys):
    code, out, _ = run(
        capsys, "singer-census", "--q", "2", "--m", "2", "--n", "2",
        "--method", "both",
    )
    assert code == 0
    assert out.splitlines() == ["scan 16", "formula 16", "verdict match"]


def test_singer_census_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(lfsr, "pvrc_formula", lambda *a, **k: 0)
    code, out, _ = run(
        capsys, "singer-census", "--q", "2", "--m", "2", "--n", "2",
        "--method", "both",
    )
    assert code == 1
    assert out.splitlines() == ["scan 16", "formula 0", "verdict mismatch"]


def test_m3_mismatch_exits_1(capsys, monkeypatch):
    """A mismatch at m = 3 exits 1 like any other: no point is
    conjectural, so no run exits 2."""
    monkeypatch.setattr(splitting, "ssc_formula", lambda q, m, n: 0)
    code, out, _ = run(
        capsys, "verify", "--statement", "SSC", "--grid", "2,3,2", "--no-timing",
    )
    assert code == 1
    point = json.loads(out)["points"][0]
    assert (point["brute"], point["formula"]) == (576, 0)
    assert point["verdict"] == "mismatch"
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "3", "--n", "2", "--no-timing",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "mismatch"


def test_lfsr_simulate(capsys):
    code, out, _ = run(
        capsys, "lfsr", "simulate", "--q", "2", "--m", "1", "--n", "2",
        "--C", "1|1", "--init", "0;1", "--steps", "6",
    )
    assert code == 0
    assert out.splitlines() == ["0", "1", "1", "0", "1", "1"]


def test_lfsr_simulate_words(capsys):
    code, out, _ = run(
        capsys, "lfsr", "simulate", "--q", "2", "--m", "2", "--n", "2",
        "--C", "1,0;0,1|0,1;1,0", "--init", "1,0;0,1", "--steps", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,0"
    assert lines[1] == "0,1"
    assert all("," in line for line in lines)


def test_lfsr_period(capsys):
    code, out, _ = run(
        capsys, "lfsr", "period", "--q", "2", "--m", "1", "--n", "2",
        "--C", "1|1", "--init", "0;1",
    )
    assert code == 0
    assert out.strip() == "preperiod=0 period=3 periodic=true"


def test_lfsr_period_not_purely_periodic(capsys):
    code, out, _ = run(
        capsys, "lfsr", "period", "--q", "2", "--m", "1", "--n", "1",
        "--C", "0", "--init", "1",
    )
    assert code == 0
    assert out.strip() == "preperiod=1 period=1 periodic=false"


def test_fiber_census_single_poly(capsys):
    code, out, _ = run(
        capsys, "fiber-census", "--q", "2", "--m", "2", "--n", "1",
        "--poly", "1,1,1",
    )
    assert code == 0
    assert "poly=1,1,1 scan=2 formula=2 bridge=2 verdict=match" in out


def test_fiber_census_all_irreducible(capsys):
    code, out, _ = run(
        capsys, "fiber-census", "--q", "2", "--m", "2", "--n", "2",
        "--all-irreducible",
    )
    assert code == 0
    assert out.splitlines() == [
        "poly=1,1,0,0,1 scan=8 formula=8 bridge=8 verdict=match",
        "poly=1,0,0,1,1 scan=8 formula=8 bridge=8 verdict=match",
        "poly=1,1,1,1,1 scan=8 formula=8 bridge=8 verdict=match",
        "total 24 over 3 polynomials",
    ]


def test_fiber_census_reducible_poly_has_no_bridge(capsys):
    code, out, _ = run(
        capsys, "fiber-census", "--q", "2", "--m", "2", "--n", "1",
        "--poly", "1,0,1",
    )
    assert code == 0
    assert out.splitlines() == ["poly=1,0,1 scan=4", "total 4 over 1 polynomials"]


def test_fiber_census_all_primitive(capsys):
    code, out, _ = run(
        capsys, "fiber-census", "--q", "2", "--m", "2", "--n", "2",
        "--all-primitive",
    )
    assert code == 0
    assert out.splitlines()[-1] == "total 16 over 2 polynomials"


def test_fiber_census_scans_the_recurrences_once(capsys, monkeypatch):
    # every recurrence scan builds its leading blocks once: all of M_m(F_q)
    # for the full scan, one per conjugacy class for the scan up to conjugation
    calls = []
    for name in ("_all_matrices", "_class_heads"):
        heads = getattr(lfsr, name)
        monkeypatch.setattr(
            lfsr, name, lambda *a, _name=name, _heads=heads, **k: calls.append(_name) or _heads(*a, **k)
        )
    code, _, _ = run(
        capsys, "fiber-census", "--q", "2", "--m", "2", "--n", "2",
        "--all-irreducible",
    )
    assert code == 0
    assert calls == ["_class_heads"]


def test_fiber_census_checks_the_poly_before_the_scan(capsys, monkeypatch):
    # both recurrence scans up to conjugation need more than 95 candidates:
    # 6 classes times 2**4 tails = 96 at (2,2,2), 12 * 3**4 at (3,2,2)
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "95")
    for argv, message in (
        (("--q", "2", "--m", "2", "--n", "2", "--poly", "1,1,1"),
         "error: f has degree 2, expected m*n = 4\n"),
        (("--q", "3", "--m", "2", "--n", "2", "--poly", "1,0,0,0,2"),
         "error: fiber counts need a monic polynomial\n"),
    ):
        assert run(capsys, "fiber-census", *argv) == (3, "", message), argv


def test_field_literal_forms(capsys):
    args = ("coprime-census", "--n1", "1", "--n2", "1", "--method", "closed")
    code_a, out_a, _ = run(capsys, *args, "--q", "2^2")
    code_b, out_b, _ = run(capsys, *args, "--q", "4")
    assert code_a == code_b == 0
    assert out_a == out_b == "3\n"


def test_bad_inputs_exit_3(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "report.json")
    recurrence = ("--q", "2", "--m", "1", "--n", "2", "--C", "1|1")
    for argv in (
        ("count-splitting", "--q", "6", "--m", "2", "--n", "2"),
        ("count-splitting", "--q", "2", "--m", "2", "--n", "2", "--poly", "1,1"),
        ("count-splitting", "--q", "2", "--m", "2", "--n", "2", "--out", missing),
        ("verify", "--statement", "SSC", "--grid", "2,2"),
        ("fiber-census", "--q", "2", "--m", "2", "--n", "1", "--poly", "1,1,2"),
        ("lfsr", "period", "--q", "2", "--m", "1", "--n", "2", "--C", "1", "--init", "0;1"),
        ("lfsr", "simulate", *recurrence, "--init", "1;5", "--steps", "5"),
        ("lfsr", "period", *recurrence, "--init", "1;7"),
        ("nilpotent-census", "3", "6", "--method", "closed"),
        ("nilpotent-census", "2", "1", "--method", "closed"),
        ("verify", "--statement", "SSC", "--grid", ""),
        ("verify", "--statement", "SSC", "--grid", " "),
        ("qbinom", "4", "2", "6"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("error:"), argv
    for argv in (
        ("coprime-census", "--q", "2", "--n1", "30", "--n2", "30"),
        ("singer-census", "--q", "2", "--m", "3", "--n", "3"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error:") and "bound is" in err, argv


def test_usage_errors_exit_3(capsys):
    # argparse's own exit status is 2; bad arguments exit 3 like every
    # other operational error
    for argv in (
        ("verify", "--statement", "SSC", "--format", "xml"),
        ("count-splitting", "--q", "2", "--m", "x", "--n", "2"),
        ("count-splitting", "--q", "2", "--m", "2"),
        ("no-such-command",),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "error:" in err, argv
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage:")


def test_factoring_over_the_bound_exits_3(capsys, monkeypatch):
    # q**3 - 1 for q = 2**31 - 1 leaves a composite cofactor of q**2 + q + 1
    # past 10**5 with no prime factor below it, so the formula refuses
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**5))
    code, out, err = run(
        capsys, "singer-census", "--q", "2147483647", "--m", "1", "--n", "3",
        "--method", "formula",
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: trial division") and "SPLITLAB_SCAN_BOUND" in err


def test_a_prime_cofactor_past_the_exact_primality_bound_is_kept(capsys, monkeypatch):
    # q**3 - 1 for q = 2**61 - 1 leaves a 121-bit cofactor past the default
    # bound, above 3.3e24 where Miller-Rabin alone is not proved exact; it
    # passes Baillie-PSW, so the formula answers
    monkeypatch.delenv("SPLITLAB_SCAN_BOUND", raising=False)
    q = 2305843009213693951
    code, out, err = run(
        capsys, "singer-census", "--q", str(q), "--m", "1", "--n", "3", "--method", "formula",
    )
    assert (code, err) == (0, "")
    # m = 1: the primitive cubics, phi(q**3 - 1) / 3; the prime factors of
    # q**3 - 1 are below 1400 but for the one cofactor
    cofactor = phi = q**3 - 1
    for p in range(2, 1400):
        if cofactor % p == 0:
            phi -= phi // p
            while cofactor % p == 0:
                cofactor //= p
    phi -= phi // cofactor
    assert int(out) == phi // 3


# -- report format splitlab/2: no field that is the same on every point ------

_M3_GRID = ("verify", "--statement", "SSC", "--grid", "2,1,2;2,3,2", "--no-timing")


def test_verify_json_is_splitlab_2_without_status(capsys):
    code, out, _ = run(capsys, *_M3_GRID, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "splitlab/2"
    for point in payload["points"]:
        assert list(point) == ["params", "brute", "formula", "verdict", "note"]
        assert point["verdict"] == "match"
    assert "status" not in out and "proved" not in out


def test_verify_csv_has_no_status_column(capsys):
    code, out, _ = run(capsys, *_M3_GRID, "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "statement,params,brute,formula,verdict,seconds",
        'SSC,"2,1,2",3,3,match,',
        'SSC,"2,3,2",576,576,match,',
    ]


def test_verify_text_has_no_status_word(capsys):
    code, out, _ = run(capsys, *_M3_GRID, "--format", "text")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  (2,1,2): brute=3 formula=3 match",
        "  (2,3,2): brute=576 formula=576 match",
    ]
    assert "status" not in out and "proved" not in out


def test_count_splitting_json_has_no_status(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "3", "--n", "2", "--no-timing",
    )
    assert code == 0
    assert list(json.loads(out)) == [
        "schema", "q", "m", "n", "defining_poly", "alpha", "brute", "formula", "verdict",
    ]
    assert json.loads(out)["schema"] == "splitlab/2"
    assert "status" not in out and "proved" not in out


def test_count_splitting_text_has_no_status(capsys):
    code, out, _ = run(
        capsys, "count-splitting", "--q", "2", "--m", "3", "--n", "2",
        "--format", "text", "--no-timing",
    )
    assert code == 0
    assert [line.split("=")[0] for line in out.splitlines()] == [
        "q", "m", "n", "defining_poly", "alpha", "brute", "formula", "verdict",
    ]
    assert "brute=576" in out and "verdict=match" in out
    assert "status" not in out and "proved" not in out


# -- the literal parsers on arbitrary text -------------------------------------

# each fuzzed option in a command that is valid without it; the option and
# its text go in as one "--opt=text" token, so text starting with "-" still
# reaches the parser
_FUZZ_COMMANDS = {
    "--q": ("count-splitting", "--m", "1", "--n", "2", "--formula-only"),
    "--poly": ("count-splitting", "--q", "2", "--m", "2", "--n", "2", "--formula-only"),
    "--alpha": ("count-splitting", "--q", "3", "--m", "2", "--n", "1", "--formula-only"),
    "--pointed": ("count-splitting", "--q", "2", "--m", "2", "--n", "2", "--formula-only"),
    "--C": ("lfsr", "period", "--q", "2", "--m", "2", "--n", "2", "--init", "1,0;0,1"),
    "--init": (
        "lfsr", "period", "--q", "2", "--m", "2", "--n", "2", "--C", "1,0;0,1|0,1;1,0",
    ),
}

# any text, and text over the literals' own alphabet, which reaches past
# the first int() into the shape and range checks
_LITERALS = st.one_of(
    st.text(max_size=40), st.text(alphabet="0123456789,;|^-+_ ", max_size=40)
)


@settings(
    derandomize=True, max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    option=st.sampled_from(sorted(_FUZZ_COMMANDS) + ["--grid"]),
    statement=st.sampled_from(statement_ids()),
    text=_LITERALS,
)
def test_literal_parsers_never_raise(capsys, monkeypatch, option, statement, text):
    # a bound of 1 refuses every scan at once, so only the parsing and the
    # checks before a scan run
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "1")
    if option == "--grid":
        argv = ("verify", "--statement", statement, "--no-timing", f"--grid={text}")
    else:
        argv = (*_FUZZ_COMMANDS[option], f"{option}={text}")
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 3), argv


def test_a_bare_double_dash_value_exits_3(capsys):
    # argparse may store [] for an option whose value is exactly "--"
    for option in ("--q", "--C", "--init"):
        argv = (*_FUZZ_COMMANDS[option], f"{option}=--")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error:"), argv
