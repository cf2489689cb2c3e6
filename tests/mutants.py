"""Mutation checks for the fast kernels, kept so that anyone can run
them again.

Each row of MUTANTS is (module, old text, new text, test ids): a module
of src/splitlab, a text that occurs in it exactly once, the broken text
that replaces it, and the tests that must fail with the swap in place.
tests/test_mutants.py checks on every run that each old text still
occurs exactly once, so a refactor that moves the code must move its
mutant too.  From the checkout root:

    python3 tests/mutants.py

The runner first runs every row's tests on an unchanged copy, where
they must pass.  Then, per row, it copies src/, tests/ and
pyproject.toml to a temporary directory (all three: pyproject.toml's
pythonpath puts the src next to it first on the path, so a copy without
it would test this checkout's src), applies the swap there and runs the
row's tests in a subprocess.  A mutant survives a listed test that
passes.  The runner prints one line per row and a summary, and exits 1
when a mutant survives a test and 2 when the copy is broken.  It uses
only the standard library; the tests run under pytest, as tier-1 does.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _ids(path: str, name: str, params) -> list[str]:
    return [f"tests/{path}::{name}[{p}]" for p in params]


MUTANTS = [
    # the class pass with one group element left out
    ("linalg", "_orbits(conj, tuple(range(len(conj))), len(mats))",
     "_orbits(conj, tuple(range(len(conj) - 1)), len(mats))",
     _ids("test_conjugacy.py", "test_union_find_oracle_reproduces_the_classes_at_m_2",
          (2, 3, 4, 5, 7, 8, 9))
     + _ids("test_conjugacy.py", "test_union_find_oracle_reproduces_the_classes_at_m_3", (3,))
     + _ids("test_conjugacy.py",
            "test_union_find_oracle_reproduces_the_classes_over_a_random_modulus", (4, 8, 9))),
    # _verdicts called before check_scan, once per scan site: the
    # subspace stream enumerated lazily, and the direct route's check
    # moved after the call
    ("splitting", "    candidates = linalg.enumerate_subspaces(ctx, m * len(powers), m)\n",
     "    candidates = itertools.chain.from_iterable(\n"
     "        map(linalg.enumerate_subspaces, [ctx], [m * len(powers)], [m])\n    )\n",
     _ids("test_bounds.py", "test_scan_refuses_over_the_process_bound",
          ("count_splitting-cold", "count_splitting-warm"))),
    ("splitting", "itertools.tee(linalg.enumerate_subspaces(ctx, m * len(powers), m))",
     "itertools.tee(itertools.chain.from_iterable(\n"
     "        map(linalg.enumerate_subspaces, [ctx], [m * len(powers)], [m])\n    ))",
     _ids("test_bounds.py", "test_scan_refuses_over_the_process_bound",
          ("pointed_consistency-cold", "pointed_consistency-warm",
           "count_pointed-cold", "count_pointed-warm"))),
    ("splitting",
     '    config.check_scan((q ** (m * n)) ** m, "ordered basis scan")\n'
     "    vecs = [e.raw for e in inst.tower.elements()]\n"
     "    # product varies the last position fastest; the walk tests the first\n"
     "    tuples = ((t[-1], *t[:-1]) for t in itertools.product(vecs, repeat=m))\n"
     "    return sum(_verdicts(inst.base, inst.mats, tuples))\n",
     "    vecs = [e.raw for e in inst.tower.elements()]\n"
     "    tuples = ((t[-1], *t[:-1]) for t in itertools.product(vecs, repeat=m))\n"
     "    verdicts = _verdicts(inst.base, inst.mats, tuples)\n"
     '    config.check_scan((q ** (m * n)) ** m, "ordered basis scan")\n'
     "    return sum(verdicts)\n",
     _ids("test_bounds.py", "test_scan_refuses_over_the_process_bound",
          ("count_splitting_bases-cold", "count_splitting_bases-warm"))),
    # the lane test's prefix memo kept under the empty head, where the
    # matrix is eliminated whole, and never kept
    ("splitting", "        whole = one_head or d == width\n", "        whole = False\n",
     _ids("test_quotient_step.py", "test_only_a_nonempty_head_keeps_its_prefixes",
          ("1-3-candidate0",))
     + _ids("test_quotient_step.py", "test_the_lane_check_picks_the_last_row_test",
            ("9-1-2", "512-1-2"))),
    ("splitting", "span_of = memos[d].__getitem__", "span_of = memos[d].build",
     ["tests/test_quotient_step.py::test_a_full_generic_scan_builds_one_quotient_per_live_head"]
     + _ids("test_quotient_step.py", "test_only_a_nonempty_head_keeps_its_prefixes",
            ("2-2-candidate1",))),
    # the lane test taken where lane sums can carry
    ("splitting", "if isinstance(ctx, fields.FieldCtx) and width * (ctx.p - 1) < 256:",
     "if isinstance(ctx, fields.FieldCtx):",
     _ids("test_quotient_step.py", "test_the_quotient_step_agrees_with_elimination_from_scratch",
          ("131-1-2",))
     + _ids("test_quotient_step.py", "test_the_lane_check_picks_the_last_row_test", ("131-2-1",))),
    # an orbit walk leaf weighted |GL_m| whatever its stabilizer
    ("lfsr", "yield prefix, order // len(stab)", "yield prefix, order",
     _ids("test_conjugacy.py", "test_orbit_walk_visits_one_tuple_per_orbit", ("2-2-3-False",))
     + _ids("test_conjugacy.py", "test_fiber_histogram_computes_one_polynomial_per_orbit",
            ("2-2-3-False",))
     + _ids("test_lfsr.py", "test_fiber_histogram_matches_the_per_polynomial_scan", ("2-2-3",))),
    # a head's prefix packed at position 0 only
    ("lfsr", "*map(pack, prefix, range(n))", "*map(pack, prefix, [0] * n)",
     _ids("test_char_polys.py", "test_kernel_walks_several_heads_and_tails_in_product_order",
          ("2-2-3",))
     + _ids("test_char_polys.py", "test_kernel_matches_char_poly_on_random_recurrences", ("3-2-3",))
     + _ids("test_lfsr.py", "test_fiber_histogram_matches_the_per_polynomial_scan", ("2-2-3",))),
    # the free positions taken from position 1 on, as if every prefix
    # were C_0 alone
    ("lfsr", "packed[len(prefix) - 1 :]", "packed[:]",
     _ids("test_char_polys.py", "test_kernel_walks_several_heads_and_tails_in_product_order",
          ("2-2-3",))
     + _ids("test_conjugacy.py", "test_fiber_histogram_computes_one_polynomial_per_orbit",
            ("2-2-3-False",))
     + _ids("test_lfsr.py", "test_fiber_histogram_matches_the_per_polynomial_scan", ("2-2-3",))),
    # the coprime kernel dividing by the divisor's leading coefficient
    # without inverting it: the same over F_2 and F_3, and the scans'
    # totals survive it too (they sum over every polynomial), so only
    # the pairwise oracle over a wider field sees it
    ("polys", "inv(b[-1])", "b[-1]",
     _ids("test_polys.py", "test_coprime_kernel_matches_gcd_on_random_pairs", (4, 5, 7, 8, 9))
     + _ids("test_polys.py", "test_coprime_kernel_edge_cases", (4, 5, 7, 8, 9))
     + ["tests/test_polys.py::test_coprime_kernel_with_non_monic_remainders"]),
    # a zero divisor read as a unit: every pair counted coprime (the
    # residue scan meets one only at n2 >= 3)
    ("polys", "return len(b) == 1", "return len(b) <= 1",
     ["tests/test_polys.py::test_coprime_pair_count_closed_matches_brute",
      "tests/test_polys.py::test_q_totient_closed_matches_brute"]
     + _ids("test_polys.py", "test_the_residue_scan_matches_the_pair_scan", (4, 9))
     + _ids("test_polys.py", "test_q_totient_closed_matches_brute_over_wide_fields", (4, 9))
     + _ids("test_polys.py", "test_coprime_kernel_matches_gcd_on_random_pairs", (2, 9))),
    # the walk testing the last row under the head rows[1:], which holds
    # it: every candidate with m >= 2 dependent
    ("splitting", "map(last(state), map(operator.itemgetter(0), group))",
     "map(last(state), map(operator.itemgetter(-1), group))",
     ["tests/test_prefix_splitter.py::test_a_full_scan_inserts_each_live_prefix_once",
      "tests/test_quotient_step.py::test_a_full_generic_scan_builds_one_quotient_per_live_head"]
     + _ids("test_packed_kernel.py", "test_packed_kernel_matches_generic_on_random_instances",
            ("2-2", "3-2"))),
    # the first rows looped outside the tail while the walk keeps the
    # rows[1:] head: the same subspaces and counts, but every candidate
    # a head of its own
    ("linalg",
     "        for tail in itertools.product(*rest):\n            for first in firsts:\n",
     "        for first in firsts:\n            for tail in itertools.product(*rest):\n",
     _ids("test_linalg.py", "test_enumerate_subspaces_matches_the_template_order",
          ("2-6-3", "3-4-2", "4-4-2"))
     + ["tests/test_prefix_splitter.py::test_a_full_scan_inserts_each_live_prefix_once",
        "tests/test_quotient_step.py::test_a_full_generic_scan_builds_one_quotient_per_live_head"]),
    # the first rows listed also at dim 1, where no tail shares them
    ("linalg", "        if rest:\n            firsts = list(firsts)\n",
     "        firsts = list(firsts)\n",
     ["tests/test_linalg.py::test_a_line_scan_streams_its_rows"]),
    # the direct route fed in product order, its last position fastest:
    # the same count, but a head per tuple
    ("splitting", "tuples = ((t[-1], *t[:-1]) for t in itertools.product(vecs, repeat=m))",
     "tuples = itertools.product(vecs, repeat=m)",
     ["tests/test_prefix_splitter.py::test_the_direct_route_varies_the_tested_row_fastest"]),
    # the byte-slot x**N mod f with the fold's second translate dropped,
    # its slot bound widened to the worst case, which carries, and taken
    # over GF(p**e), whose scalars are codes
    ("polys", '.to_bytes(k, "little").translate(mod_p), "little")', '.to_bytes(k, "little"), "little")',
     _ids("test_polys.py", "test_x_power_matches_pow_mod_on_random_moduli", (2, 3, 5, 7, 11, 13))
     + _ids("test_polys.py", "test_order_tests_match_rabin_on_pow_mod", ("GF(2)", "GF(3)"))),
    ("polys", "k * (ctx.p - 1) ** 2 < 256", "k * (ctx.p - 1) ** 2 <= 256",
     _ids("test_polys.py", "test_x_power_on_the_worst_case_at_its_bound", (64,))),
    ("polys", "ctx.e == 1 and k * (ctx.p - 1) ** 2", "k * (ctx.p - 1) ** 2",
     _ids("test_polys.py", "test_only_the_prime_field_takes_the_kernel", (4, 9))),
    # the slot product of the odd-p order test: each row read n bytes past
    # the diagonal, the bound widened to 256 (F_17's 1 x 1 square), and
    # taken over GF(9)
    ("linalg", "range((n - 1) * n, len(a), W)", "range(n * n, len(a), W)",
     _ids("test_matrix_kernels.py", "test_the_slot_product_matches_the_generic_product",
          (3, 5, 7, 11, 13))
     + _ids("test_lfsr.py", "test_order_on_one_vector_equals_matrix_powers",
            ("3-1-2-False", "5-2-1-False", "7-1-3-False"))),
    ("linalg", "n * (ctx.p - 1) ** 2 < 256", "n * (ctx.p - 1) ** 2 <= 256",
     _ids("test_lfsr.py", "test_order_on_one_vector_equals_matrix_powers", ("17-1-1-False",))
     + _ids("test_lfsr.py", "test_the_order_test_squares_in_byte_slots_below_the_bound",
            ("17-1-1-False",))),
    ("linalg", "ctx.e == 1 and n * (ctx.p - 1) ** 2", "n * (ctx.p - 1) ** 2",
     _ids("test_lfsr.py", "test_order_on_one_vector_equals_matrix_powers",
          ("9-1-2-False", "9-1-2-True"))
     + _ids("test_lfsr.py", "test_the_order_test_squares_in_byte_slots_below_the_bound",
            ("9-2-2-False",))
     + _ids("test_linalg.py", "test_the_packed_nilpotent_test_matches_matrix_powers", ("2-9",))),
    # a span extended without the row itself (c = 1), and a row that
    # lies in the span extending it instead of making the rows dependent
    ("splitting", "for c in range(1, q):", "for c in range(2, q):",
     ["tests/test_quotient_step.py::test_a_full_generic_scan_builds_one_quotient_per_live_head"]
     + _ids("test_quotient_step.py", "test_the_span_memo_agrees_with_elimination_on_random_matrices",
            (3, 4, 5, 7, 8, 9))
     + _ids("test_quotient_step.py", "test_the_quotient_step_agrees_with_elimination_from_scratch",
            ("3-2-2", "4-2-2", "9-2-2"))),
    ("splitting", "        if row in span:\n            return None\n", "",
     ["tests/test_quotient_step.py::test_a_full_generic_scan_builds_one_quotient_per_live_head"]
     + _ids("test_quotient_step.py", "test_the_span_memo_agrees_with_elimination_on_random_matrices",
            (3, 4, 5, 7, 8, 9))
     + _ids("test_quotient_step.py", "test_the_quotient_step_agrees_with_elimination_from_scratch",
            ("3-2-3", "5-2-2", "8-2-2"))),
    # the F_2 reduction loop writing into the basis it was given: a
    # head's state then grows the shared empty basis, and each test the
    # head's state
    ("splitting", "basis = pivots[:]", "basis = pivots",
     ["tests/test_prefix_splitter.py::test_a_full_scan_inserts_each_live_prefix_once"]
     + _ids("test_packed_kernel.py", "test_packed_kernel_matches_generic_on_random_instances",
            ("1-3", "2-2", "2-3", "3-2"))
     + _ids("test_prefix_splitter.py", "test_shared_state_changes_no_answer", ("2-1-3", "2-2-2"))),
    # conjugation by P taken as X -> P X P instead of P X P**-1
    ("linalg", "P.inverse().rows", "P.rows",
     _ids("test_conjugacy.py", "test_union_find_oracle_reproduces_the_classes_at_m_2",
          (2, 3, 4, 5, 7, 8, 9))
     + _ids("test_conjugacy.py", "test_union_find_oracle_reproduces_the_classes_at_m_3", (3,))
     + _ids("test_conjugacy.py",
            "test_union_find_oracle_reproduces_the_classes_over_a_random_modulus", (4, 8, 9))),
    # the count through 1 enumerated lazily: _verdicts entered before
    # check_scan
    ("splitting", "    candidates = linalg.enumerate_subspaces(ctx, width - 1, m - 1)\n",
     "    candidates = itertools.chain.from_iterable(\n"
     "        map(linalg.enumerate_subspaces, [ctx], [width - 1], [m - 1])\n    )\n",
     _ids("test_bounds.py", "test_scan_refuses_over_the_process_bound",
          ("fiber_count-cold", "fiber_count-warm"))),
    # the pointed scan's candidates with e_0 after the head rows, the
    # rescale's q**m taken as q, and the zero coordinate appended to
    # the rows of W' instead of put in front
    ("splitting", "(*rows[:1], e0, *rows[1:])", "(*rows, e0)",
     _ids("test_through_one.py", "test_e0_leads_every_head_and_the_widest_row_is_tested",
          ("2-3-2", "3-3-2", "4-3-1"))),
    ("splitting", "pointed * (q**width - 1) // (q**m - 1)", "pointed * (q**width - 1) // (q - 1)",
     _ids("test_through_one.py", "test_the_count_through_one_is_the_full_count",
          ("2-2-2", "3-2-2", "2-3-2", "9-2-2"))),
    # (at m = 2 an appended zero walks each plane through e_0 inside the
    # hyperplane x_(mn-1) = 0 once per line of it other than <e_0>, q
    # times, and at (2,2,3) and (3,2,2) that count comes out right)
    ("splitting", "tuple((zero, *row) for row in W.rows)", "tuple((*row, zero) for row in W.rows)",
     _ids("test_through_one.py", "test_the_count_through_one_is_the_full_count",
          ("2-2-4", "2-3-2", "3-3-2", "9-2-2"))
     + _ids("test_through_one.py", "test_e0_leads_every_head_and_the_widest_row_is_tested",
            ("2-2-3", "3-2-2"))),
    # the memos kept under the one head of a pointed m = 2 scan: the
    # F_2 translates per tested row, and the lane test's span memo
    ("splitting", "memo = split if one_head else _Table(split).__getitem__",
     "memo = _Table(split).__getitem__",
     _ids("test_through_one.py", "test_only_scans_where_rows_repeat_keep_their_memos",
          ("through_one-2-3-2",))
     + _ids("test_through_one.py", "test_a_pointed_plane_scan_stays_small", ("2-8",))),
    ("splitting", "whole = one_head or d == width", "whole = d == width",
     _ids("test_through_one.py", "test_only_scans_where_rows_repeat_keep_their_memos",
          ("through_one-2-3-3",))
     + _ids("test_through_one.py", "test_a_pointed_plane_scan_stays_small", ("3-5",))),
    # a tower's reduction rows shifted up by x without the lead's
    # reduction
    ("fields", "add(a, mul(lead, b))", "a",
     _ids("test_fields.py", "test_tower_reduction_rows_match_pow_mod_on_random_moduli",
          (2, 3, 4, 5, 7, 8, 9))),
    # the residue scan run before check_scan, each residue weighed as
    # q**(n1 - t - 1) polynomials instead of q**(n1 - t), and f2 = 1
    # left out
    ("polys",
     '        config.check_scan((q ** (2 * n2) - 1) // (q * q - 1), "coprime pair census")\n'
     "        total = q**n1 - 1  # f2 = 1\n",
     "        total = q**n1 - 1  # f2 = 1\n",
     _ids("test_bounds.py", "test_scan_refuses_over_the_process_bound",
          ("coprime_pair_count-cold", "coprime_pair_count-warm"))),
    ("polys", "total += coprime * q ** (n1 - t)", "total += coprime * q ** (n1 - t - 1)",
     _ids("test_polys.py", "test_the_residue_scan_matches_the_pair_scan", (2, 3, 4, 5, 7, 8, 9))
     + ["tests/test_polys.py::test_coprime_pair_count_closed_matches_brute"]),
    ("polys", "total = q**n1 - 1  # f2 = 1", "total = 0",
     _ids("test_polys.py", "test_the_residue_scan_matches_the_pair_scan", (2, 3, 4, 5, 7, 8, 9))
     + ["tests/test_polys.py::test_coprime_pair_count_closed_matches_brute"]),
    # T ** (m - 1) taken for T ** m in the nilpotent scan
    ("linalg", "for _ in range(m - 1):", "for _ in range(m - 2):",
     _ids("test_linalg.py", "test_the_packed_nilpotent_test_matches_matrix_powers",
          ("2-2", "2-3", "2-9", "3-3", "2-13"))
     + ["tests/test_linalg.py::test_count_nilpotent"]),
    # the zero vector's key left in the point tally, and the digit-byte
    # keys taken where a digit does not fit a byte
    ("splitting", "    del hist[zero]\n", "",
     _ids("test_splitting.py", "test_the_digit_byte_tally_matches_the_vectors",
          ("2-2-2", "3-2-2", "9-2-1"))
     + ["tests/test_splitting.py::test_pointed_identity"]),
    ("splitting", "m * (ctx.p - 1) < 256", "m * (ctx.p - 1) <= 256",
     _ids("test_splitting.py", "test_the_tally_keeps_digit_bytes_while_their_sums_fit",
          ("257-1-vectors",))),
]


def _copy(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _failed(tmp: pathlib.Path, ids: list[str]) -> dict[str, bool]:
    """Whether each of ids fails in the copy at tmp, from pytest's
    JUnit report; a test that does not finish in time counts as failed,
    and one pytest did not run is left out."""
    report = tmp / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               f"--junitxml={report}", *ids]
    try:
        subprocess.run(command, cwd=tmp, env=env, capture_output=True, timeout=1800)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(ids, True)
    if not report.exists():
        return {}
    out = {}
    for case in ET.parse(report).iter("testcase"):
        test = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        out[test] = any(child.tag in ("failure", "error") for child in case)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _copy(tmp)
        every = sorted({test for *_, tests in MUTANTS for test in tests})
        baseline = _failed(tmp, every)
        broken = [test for test in every if baseline.get(test, True)]
        if broken:
            print("unchanged copy: these tests fail or did not run:", *broken, sep="\n  ")
            return 2
    survived = 0
    for i, (module, old, new, tests) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            _copy(tmp)
            path = tmp / "src" / "splitlab" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print(f"row {i} ({module}): the old text does not occur exactly once")
                return 2
            path.write_text(source.replace(old, new), encoding="utf-8")
            failed = _failed(tmp, tests)
        missing = [test for test in tests if test not in failed]
        if missing:
            print(f"row {i} ({module}): did not run:", *missing, sep="\n  ")
            return 2
        passed = [test for test in tests if not failed[test]]
        survived += bool(passed)
        verdict = "survived " + ", ".join(passed) if passed else f"killed by all {len(tests)}"
        print(f"row {i} ({module}): {verdict}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
