"""End-to-end CLI runs, in process.

Each helper invocation captures stdout/stderr and the exit code; reports
are parsed back from JSON so the assertions hit the machine-readable
surface the tool promises.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import spitefree
from spitefree import cli, multiitem, specfile, verifier
from spitefree.cli import (
    EXIT_BUDGET,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PROPERTY_FAIL,
    main,
)
from spitefree.core import Grid
from spitefree.mechanisms import ThresholdSpec, tabulate
from spitefree.multiitem import sequential_allocate_general
from spitefree.verifier import BudgetExceededError

THRESHOLD_SPEC = "kind: threshold\nranking: 1,2\nthresholds: 1,2\n"
SECOND_PRICE_SPEC = "kind: second_price\nn: 2\n"
CLUSTER_SPITE_SPEC = """\
kind: cluster
items: 2
ranking: 1,2
thresholds[1]: 10=1, 01=1, 11=2
thresholds[2]: 10=1, 01=1, 11=2
candidate[1]: 10=1, 01=1
candidate[1]: 01=1
candidate[2]: 01=3/2, 11=3/2
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verify_passing_threshold_spec(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    code, out, _ = run_cli(
        "verify", "--spec", spec, "--props", "ir,ic,sic,esic,payments,winner_price"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert sorted(report) == ["command", "config", "results", "version", "wall_time_s"]
    assert report["command"] == "verify"
    assert report["results"]["all_passed"] is True
    # the grid defaults to the closure of the spec's thresholds
    assert report["config"]["grid"] == "0,1/2,1,3/2,2,5/2"
    # the normalized mechanism text is echoed so the run is reproducible
    assert "kind: threshold" in report["config"]["mechanism"]


def test_a_bad_run_after_a_good_one_fails_as_it_does_first(tmp_path):
    # the parser is built once per process and reused
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    bad_props = ("verify", "--spec", spec, "--props", "ir,bogus")
    cli.build_parser.cache_clear()
    first = run_cli(*bad_props)
    assert first[:2] == (EXIT_INPUT_ERROR, "")
    assert "unknown property 'bogus'" in first[2]
    assert run_cli("verify", "--spec", spec)[0] == EXIT_OK
    assert run_cli(*bad_props) == first
    assert cli.build_parser() is cli.build_parser()
    # an argparse error exits 2 with the same usage line
    usage = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
            main(["verify", "--grid", "0,1"])
        usage.append((exited.value.code, err.getvalue()))
        assert run_cli("verify", "--spec", spec)[0] == EXIT_OK
    assert usage[0] == usage[1]
    assert usage[0][0] == EXIT_INPUT_ERROR
    assert "the following arguments are required: --spec" in usage[0][1]


def test_verify_reports_a_witness_on_failure(tmp_path):
    spec = write(tmp_path, "sp.spec", SECOND_PRICE_SPEC)
    code, out, _ = run_cli("verify", "--spec", spec, "--grid", "0,1,2", "--props", "sic")
    assert code == EXIT_PROPERTY_FAIL
    report = json.loads(out)
    entry = report["results"]["reports"][0]
    assert entry["property"] == "SIC"
    assert entry["passed"] is False
    assert entry["witness"]["profile"] == ["0", "2"]
    assert entry["witness"]["deviation_profile"] == ["1", "2"]


def test_verify_renders_an_anonymity_witness_with_agents_from_1(tmp_path):
    spec = write(tmp_path, "sp3.spec", "kind: second_price\nn: 3\n")
    code, out, _ = run_cli("verify", "--spec", spec, "--grid", "0,1,2", "--props", "anonymous")
    assert code == EXIT_PROPERTY_FAIL
    entry = json.loads(out)["results"]["reports"][0]
    assert (entry["property"], entry["passed"]) == ("ANON", False)
    # the witness swaps agents 1 and 2: (1, 0, 2) counted from 0
    assert entry["witness"]["permutation"] == [2, 1, 3]
    assert entry["witness"]["agent"] is None


def test_verify_checks_a_table_on_its_own_grid(tmp_path):
    table = tabulate(ThresholdSpec((1, 2), (Fraction(1), Fraction(1))), Grid.from_text("0,1"))
    rows = [
        f"row: {','.join(map(str, profile))} -> {out.winner} ; {','.join(map(str, out.payments))}"
        for profile, out in table.rows
    ]
    spec = write(tmp_path, "table.spec", "kind: table\ngrid: 0,1\nn: 2\n" + "\n".join(rows) + "\n")
    code, out, _ = run_cli("verify", "--spec", spec)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"]["grid"] == "0,1"
    assert [r["property"] for r in report["results"]["reports"]] == ["IR", "IC", "SIC", "ESIC"]
    assert report["results"]["all_passed"] is True


def test_verify_is_deterministic(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    argv = ("verify", "--spec", spec, "--props", "ir,sic")
    _, first, _ = run_cli(*argv)
    _, second, _ = run_cli(*argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_verify_requires_a_grid_for_benchmarks(tmp_path):
    spec = write(tmp_path, "sp.spec", SECOND_PRICE_SPEC)
    code, _, err = run_cli("verify", "--spec", spec, "--props", "ir")
    assert code == EXIT_INPUT_ERROR
    assert "grid" in err



def test_an_oversized_verify_exits_3_before_any_tabulation(tmp_path, monkeypatch):
    monkeypatch.setattr(verifier, "_cached_tabulation", _never)
    monkeypatch.setattr(verifier, "_tabulation", _never)
    second = write(tmp_path, "second40.spec", "kind: second_price\nn: 40\n")
    code, out, err = run_cli("verify", "--spec", second, "--grid", "0,1")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "2^n x n x (1 + n x 1) payoffs, over the cap of 20000000" in err
    # an n too large to raise a grid's width to is refused all the same
    huge = write(tmp_path, "huge.spec", "kind: first_price\nn: 1000000000\n")
    code, out, err = run_cli("verify", "--spec", huge, "--grid", "0,1,2")
    assert (code, out) == (EXIT_BUDGET, "")
    null = write(tmp_path, "null10.spec", "kind: null\nn: 10\n")
    code, out, err = run_cli("verify", "--spec", null, "--grid", "0,1", "--props", "anonymous")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "2^n x (n! - 1) = 3715890176 relabeled profiles, over the cap of 1000000" in err


def test_verify_is_sized_by_the_amounts_it_tabulates():
    cap = cli.MAX_TABULATED_AMOUNTS
    # on one level the deviation checks read only n payoffs, so n up to
    # MAX_PAYOFF_READS passes that cap; two levels at n = 16 sit at this one
    assert 16 * 2**16 == cap < cli.MAX_PAYOFF_READS
    for n, width in ((cap, 1), (16, 2), (10, 3), (2, 150)):
        cli._check_verify_size(n, width, ("ic",))
    for n, width, anonymous, message in (
        (cap + 1, 1, False, "the tabulation on a 1-level grid at n=1048577 holds "
         "1^n x n = 1048577 profile amounts, over the cap of 1048576"),
        (17, 2, False, "the deviation checks on a 2-level grid at n=17 read "
         "2^n x n x (1 + n x 1) = 40108032 payoffs, over the cap of 20000000"),
        (20_000_001, 1, False, "the deviation checks on a 1-level grid at n=20000001 read "
         "1^n x n x (1 + n x 0) = 20000001 payoffs, over the cap of 20000000"),
        (cap + 1, 1, True, "an anonymity check on a 1-level grid at n=1048577 reads "
         "1^n x (n! - 1) relabeled profiles, over the cap of 1000000"),
        (10, 2, True, "an anonymity check on a 2-level grid at n=10 reads "
         "2^n x (n! - 1) = 3715890176 relabeled profiles, over the cap of 1000000"),
    ):
        with pytest.raises(BudgetExceededError) as caught:
            cli._check_verify_size(n, width, ("ic", "anonymous") if anonymous else ("ic",))
        assert str(caught.value) == message
    # on L >= 1 levels, L not yet known, the counts are lower bounds and say so
    cli._check_verify_size(9, 1, ("ic", "anonymous"), at_least=True)
    for n, anonymous, message in (
        (cap + 1, False, "the tabulation on a grid of L >= 1 levels at n=1048577 holds "
         "L^n x n >= 1048577 profile amounts, over the cap of 1048576"),
        (20_000_001, False, "the deviation checks on a grid of L >= 1 levels at n=20000001 read "
         "L^n x n x (1 + n x (L - 1)) >= 20000001 payoffs, over the cap of 20000000"),
        (10, True, "an anonymity check on a grid of L >= 1 levels at n=10 reads "
         "L^n x (n! - 1) >= 3628799 relabeled profiles, over the cap of 1000000"),
    ):
        with pytest.raises(BudgetExceededError) as caught:
            props = ("ic", "anonymous") if anonymous else ("ic",)
            cli._check_verify_size(n, 1, props, at_least=True)
        assert str(caught.value) == message


def test_a_verify_of_twenty_million_agents_exits_3_before_building_them(tmp_path, monkeypatch):
    # an n below 1 is left to the file's own error, not to the size check
    spec = write(tmp_path, "null0.spec", "kind: null\nn: 0\n")
    code, _, err = run_cli("verify", "--spec", spec, "--grid", "5", "--props", "anonymous")
    assert code == EXIT_INPUT_ERROR
    assert "need at least one agent" in err
    # the file states n in one line; a null spec of that size would take
    # seconds and gigabytes to build before any check could refuse it
    monkeypatch.setitem(specfile._BUILDERS, "null", functools.partial(specfile._build_sized, _never))
    monkeypatch.setattr(verifier, "_tabulation", _never)
    spec = write(tmp_path, "null20m.spec", "kind: null\nn: 20000000\n")
    code, out, err = run_cli("verify", "--spec", spec, "--grid", "5")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "1^n x n = 20000000 profile amounts, over the cap of 1048576" in err
    # without --grid it needs one, and says so before the mechanism is built
    code, out, err = run_cli("verify", "--spec", spec)
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", "error: kind 'null' needs an explicit --grid\n")


def test_single_item_files_of_2_to_the_20_agents_exit_3_before_their_lists_are_read(
    tmp_path, monkeypatch
):
    # sized by n alone (a threshold file's ranking entries counted, a
    # table's n: line) on --grid, else on a table's own grid or on the
    # fewest levels a threshold file's closure can have: 2 once a threshold
    # is finite, found without parsing one, else 1; reading their lists
    # took 5 to 13 s and 300 MB
    for name in ("_integers", "parse_ext_money", "Outcome"):
        monkeypatch.setattr(specfile, name, _never)
    n = 1 << 20
    agents = ",".join(map(str, range(1, n + 1)))
    threshold = f"kind: threshold\nranking: {agents}\nthresholds: {','.join(['1'] * n)}\n"
    infinite = f"kind: threshold\nranking: {agents}\nthresholds: {','.join(['inf'] * n)}\n"
    table = f"kind: table\ngrid: 5\nn: {n}\nrow: {','.join(['5'] * n)} -> 0 ; {','.join(['0'] * n)}\n"
    # over the cap, a malformed list is not read either: exit 3, not 2
    malformed = f"kind: threshold\nranking: x,{agents.partition(',')[2]}\nthresholds: 1\n"
    one_level = "an anonymity check on a 1-level grid at n=1048576 reads 1^n x (n! - 1)"
    anonymity = f"{one_level} relabeled profiles, over the cap of 1000000"
    at_least_one = (
        "an anonymity check on a grid of L >= 1 levels at n=1048576 reads L^n x (n! - 1) "
        "relabeled profiles, over the cap of 1000000"
    )
    at_least_two = (
        "the deviation checks on a grid of L >= 2 levels at n=1048576 read "
        "L^n x n x (1 + n x (L - 1)) payoffs, over the cap of 20000000"
    )
    # without ic, sic or esic no payoff-read cap applies, and anonymity's binds
    anonymity_at_least_two = (
        "an anonymity check on a grid of L >= 2 levels at n=1048576 reads L^n x (n! - 1) "
        "relabeled profiles, over the cap of 1000000"
    )
    for k, (text, options, message) in enumerate((
        (threshold, ["--grid", "5", "--props", "anonymous"], anonymity),
        (table, ["--grid", "5", "--props", "anonymous"], anonymity),
        (malformed, ["--grid", "5", "--props", "anonymous"], anonymity),
        (threshold, ["--props", "anonymous"], anonymity_at_least_two),
        (threshold, [], at_least_two),
        (infinite, ["--props", "anonymous"], at_least_one),
        (table, ["--props", "anonymous"], anonymity),
        (malformed, ["--props", "anonymous"], anonymity_at_least_two),
    )):
        spec = write(tmp_path, f"big{k}.spec", text)
        code, out, err = run_cli("verify", "--spec", spec, *options)
        assert (code, out, err) == (EXIT_BUDGET, "", f"error: {message}\n"), k


def test_a_sequential_file_of_2_to_the_20_agents_exits_3_before_its_lists_are_read(
    tmp_path, monkeypatch
):
    # sized on the built-in domain by its ranking entries and items: alone,
    # its counts named as powers; reading the file and rendering the counts
    # in full took 48 s
    for name in ("_integers", "_amount_list", "SequentialSpec"):
        monkeypatch.setattr(specfile, name, _never)
    monkeypatch.setattr(cli, "Decimal", _never)
    n = 1 << 20
    agents = ",".join(map(str, range(1, n + 1)))
    spec = write(
        tmp_path, "seq.spec", f"kind: sequential\nitems: 2\nranking: {agents}\nthresholds: 1\n"
    )
    code, out, err = run_cli("multi", "--spec", spec)
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == (
        "error: the built-in domain has C(3 + 2, 2) = 10 valuations per agent, so 10^n profiles "
        "and 10^n x n x (1 + n x 9) payoff reads at n=1048576, over the cap of 20000000\n"
    )


def test_the_payoff_read_cap_binds_only_on_deviation_checks(tmp_path):
    # 10^5 x 5 x (1 + 5 x 9) = 23 million payoff reads, over the cap; efficiency reads none
    spec = write(tmp_path, "second5.spec", "kind: second_price\nn: 5\n")
    grid = ",".join(map(str, range(10)))
    code, out, _ = run_cli("verify", "--spec", spec, "--grid", grid, "--props", "efficient")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["reports"][0]["checked_count"] == 10**5
    code, out, err = run_cli("verify", "--spec", spec, "--grid", grid, "--props", "efficient,sic")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "= 23000000 payoffs, over the cap of 20000000" in err
    # without the payoff check, an n too large to raise two levels to is refused all the same
    with pytest.raises(BudgetExceededError) as caught:
        cli._check_verify_size(10**9, 2, ("efficient",))
    assert str(caught.value) == (
        "the tabulation on a 2-level grid at n=1000000000 holds 2^n x n profile amounts, "
        "over the cap of 1048576"
    )


def test_payment_checks_over_the_cap_exit_3_before_any_work(tmp_path, monkeypatch):
    monkeypatch.setattr(verifier, "_payment_checks", _never)
    monkeypatch.setattr(verifier, "_tabulation", _never)
    # 724^2 x 2 = 1048352 amounts pass the tabulation cap; 724^2 x 2 x 723 / 2 pairs do not
    spec = write(tmp_path, "second2.spec", "kind: second_price\nn: 2\n")
    grid = ",".join(map(str, range(724)))
    for props in ("payments", "ir,efficient,winner_price,payments"):
        code, out, err = run_cli("verify", "--spec", spec, "--grid", grid, "--props", props)
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.strip().endswith(
            "the payment checks on a 724-level grid at n=2 compare 724^n x n x 723 / 2 = "
            "378979248 bid pairs, over the cap of 20000000"
        )
    spec = write(tmp_path, "threshold1.spec", "kind: threshold\nranking: 1\nthresholds: 1\n")
    grid = ",".join(map(str, range(20_000)))
    code, out, err = run_cli("verify", "--spec", spec, "--grid", grid, "--props", "payments")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "= 199990000 bid pairs, over the cap of 20000000" in err
    # 271^2 x 2 x 270 / 2 = 19829070 pairs sit under the cap, 272 levels over it
    cli._check_verify_size(2, 271, ("payments",))
    with pytest.raises(BudgetExceededError):
        cli._check_verify_size(2, 272, ("payments",))


def test_the_verify_caps_admit_the_null_spec_at_ten_agents(tmp_path):
    null = write(tmp_path, "null10.spec", "kind: null\nn: 10\n")
    code, out, _ = run_cli("verify", "--spec", null, "--grid", "0,1")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["all_passed"] is True

def test_verify_rejects_malformed_spec_files(tmp_path):
    spec = write(tmp_path, "bad.spec", "kind: junk\n")
    code, _, err = run_cli("verify", "--spec", spec, "--grid", "0,1")
    assert code == EXIT_INPUT_ERROR
    assert "unknown kind" in err


def test_output_file_and_text_format(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        "verify", "--spec", spec, "--props", "ir", "--format", "text", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    text = target.read_text()
    assert "all_passed: true" in text
    assert "kind: threshold" in text


def test_enumerate_reports_the_characterization(tmp_path):
    code, out, _ = run_cli("enumerate", "--grid", "0,1", "--n", "2")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["summary"]["ir_ic_count"] == 30
    assert results["summary"]["sic_count"] == 18
    assert results["summary"]["threshold_form_count"] == 18
    assert results["sic_equals_threshold_form"] is True
    assert results["null_is_only_anonymous_sic"] is True
    assert results["null_is_only_efficient_sic"] is True


def test_enumerate_budget_exhaustion():
    code, _, err = run_cli("enumerate", "--grid", "0,1,2", "--n", "2", "--budget", "10")
    assert code == EXIT_BUDGET
    assert "more than 10" in err
    # one short of the 30 tables on {0,1} at the default n=2
    code, _, err = run_cli("enumerate", "--grid", "0,1", "--budget", "29")
    assert code == EXIT_BUDGET
    assert "more than 29" in err


def test_enumerate_budget_is_decided_by_the_table_count_alone():
    # {0,1} at n=3 has 5 075 IR+IC tables, and its mismatch is table 2 368:
    # a budget under the count exits 3 before the walk reaches the mismatch
    code, out, err = run_cli("enumerate", "--grid", "0,1", "--n", "3", "--budget", "5074")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "more than 5074 IR+IC tables on grid 0,1" in err
    code, out, _ = run_cli("enumerate", "--grid", "0,1", "--n", "3", "--budget", "5075")
    assert code == EXIT_PROPERTY_FAIL
    assert "violation" in json.loads(out)["results"]


def test_enumerate_rejects_a_non_positive_budget():
    for budget in ("-1", "0"):
        code, out, err = run_cli("enumerate", "--grid", "0,1", "--budget", budget)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert f"--budget must be a positive number of tables, got {budget}" in err
    code, _, err = run_cli("enumerate", "--grid", "0,1", "--budget", "1")
    assert code == EXIT_BUDGET
    assert "more than 1 IR+IC tables" in err


def test_enumerate_reports_a_mismatch_as_a_violation():
    code, out, _ = run_cli("enumerate", "--grid", "0,1", "--n", "3")
    assert code == EXIT_PROPERTY_FAIL
    results = json.loads(out)["results"]
    assert results["all_passed"] is False
    assert "violation" in results


def test_enumerate_rejects_zero_agents():
    code, _, err = run_cli("enumerate", "--grid", "0,1,2", "--n", "0")
    assert code == EXIT_INPUT_ERROR
    assert "at least one agent" in err
    code, out, err = run_cli("enumerate", "--grid", "0,1,2", "--n", "-1")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert "need at least one agent" in err


def _levels(count):
    return ",".join(str(k) for k in range(count))


def test_enumerate_at_the_walk_cap_runs_to_its_budget():
    # 512 levels at n=1: 512 profiles, counted until the sixth table
    code, out, err = run_cli("enumerate", "--grid", _levels(512), "--n", "1", "--budget", "5")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "more than 5 IR+IC tables" in err


@pytest.mark.parametrize(
    "grid, n, count",
    [(_levels(513), "1", "513^1 = 513"), ("0,1", "40", "2^40 = 1099511627776"), ("0,1", "10", "2^10 = 1024")],
)
def test_an_oversized_enumerate_grid_exits_3_before_any_work(grid, n, count, monkeypatch):
    monkeypatch.setattr(verifier._Walk, "__init__", _never)
    monkeypatch.setattr(verifier, "_line_starts", _never)
    code, out, err = run_cli("enumerate", "--grid", grid, "--n", n, "--budget", "5")
    assert (code, out) == (EXIT_BUDGET, "")
    assert f"at n={n} has {count} profiles, over the IR+IC walk's cap of 512" in err


def test_an_enumerate_sweep_over_the_relabeling_cap_exits_3_before_any_work(monkeypatch):
    monkeypatch.setattr(verifier._Walk, "__init__", _never)
    for name in ("_line_starts", "_anonymity_check"):
        monkeypatch.setattr(verifier, name, _never)
    code, out, err = run_cli("enumerate", "--grid", "0,1", "--n", "9", "--budget", "5")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "2^9 x (9! - 1) = 185794048 relabeled profiles, over the sweep's cap of 1000000" in err


def test_thresholds_exact_values():
    code, out, _ = run_cli("thresholds", "--n", "3")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["exact"] is True
    assert results["values_last_to_first"] == ["1/2", "5/8", "89/128"]
    assert results["values_in_line_order"] == ["89/128", "5/8", "1/2"]
    assert results["expected_revenue"] == "7921/16384"


@contextlib.contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_thresholds_render_exactly_up_to_the_exact_limit():
    for n in (13, 16):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("thresholds", "--n", str(n))
        assert code == EXIT_OK, err
        assert sys.get_int_max_str_digits() == limit
        results = json.loads(out)["results"]
        assert results["exact"] is True
        prices = [Fraction(1, 2)]
        for _ in range(n - 1):
            prices.append((1 + prices[-1] ** 2) / 2)
        revenue = Fraction(0)
        for t in prices:
            revenue = (1 - t) * t + t * revenue
        with unlimited_int_digits():
            assert [Fraction(t) for t in results["values_last_to_first"]] == prices
            assert Fraction(results["expected_revenue"]) == revenue


def _exact_optimum(n):
    """The exact prices t_1..t_n and revenue, each as an int m and e for m / 2^e.

    The Fraction recursion on dyadic numerators: t_1 = 1/2 and
    t_(k+1) = (1 + t_k^2) / 2, then revenue = t (1 - t + revenue) over the
    prices in order.  Fraction itself would spend seconds on gcds.
    """
    prices = [(1, 1)]
    for _ in range(n - 1):
        a, e = prices[-1]
        prices.append(((1 << 2 * e) + a * a, 2 * e + 1))
    g, f = 0, 0
    for a, e in prices:
        top = max(e, f)
        g = a * ((1 << top) - (a << top - e) + (g << top - f))
        f = top + e
    return prices, (g, f)


def _round_25(m: int, e: int) -> str:
    """m / 2^e in [1/10, 1) to 25 significant digits, half to even, on ints alone."""
    q, r = divmod(m * 10**25, 1 << e)
    if 2 * r > 1 << e or (2 * r == 1 << e and q % 2):
        q += 1
    assert 10**24 <= q < 10**25
    return ("0." + str(q)).rstrip("0")


def test_thresholds_past_the_exact_limit_render_the_exact_values_rounded():
    for n in range(17, 21):
        code, out, err = run_cli("thresholds", "--n", str(n))
        assert code == EXIT_OK, err
        results = json.loads(out)["results"]
        assert results["exact"] is False
        prices, revenue = _exact_optimum(n)
        assert results["values_last_to_first"] == [_round_25(*t) for t in prices]
        assert results["values_in_line_order"] == [_round_25(*t) for t in reversed(prices)]
        assert results["expected_revenue"] == _round_25(*revenue)
    # t_4006 is 0.99950200020712229102407715000002091...: a near tie at
    # the 25th digit, which rounds up
    code, out, _ = run_cli("thresholds", "--n", "4006")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["values_last_to_first"][-1] == "0.9995020002071222910240772"


def test_an_oversized_thresholds_report_exits_3_before_any_work(monkeypatch):
    for name in ("optimal_thresholds_uniform", "expected_revenue_recursive"):
        monkeypatch.setattr(cli, name, _never)
    code, out, err = run_cli("thresholds", "--n", "100000")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "a report for --n 100000 holds about 10000000 bytes (100 per agent)" in err
    assert str(cli.MAX_THRESHOLDS_REPORT_BYTES) in err


def test_the_thresholds_cap_admits_ten_thousand_agents():
    code, out, _ = run_cli("thresholds", "--n", "10000")
    assert code == EXIT_OK
    assert len(out) <= 10_000 * cli._THRESHOLDS_BYTES_PER_AGENT


def test_an_oversized_revenue_simulation_exits_3_before_any_work(monkeypatch):
    for name in ("optimal_thresholds_uniform", "expected_revenue_recursive", "monte_carlo_revenue"):
        monkeypatch.setattr(cli, name, _never)
    code, out, err = run_cli("revenue", "--n", "3", "--samples", "10000000000000")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "--n 3 x --samples 1.000e+13 = 3.000e+13 uniform draws" in err
    assert str(cli.MAX_SAMPLE_DRAWS) in err
    code, _, err = run_cli("revenue", "--n", "11", "--samples", "1000000")
    assert code == EXIT_BUDGET
    assert "= 11000000 uniform draws" in err


def test_a_revenue_run_over_the_agent_cap_exits_3_before_any_work(monkeypatch):
    # n x samples sits at the draw cap here, so only the agent cap stops
    # an exact recursion of ten million steps
    for name in ("optimal_thresholds_uniform", "expected_revenue_recursive", "monte_carlo_revenue"):
        monkeypatch.setattr(cli, name, _never)
    n = 10 * cli.MAX_REVENUE_AGENTS
    assert n * 1 <= cli.MAX_SAMPLE_DRAWS
    code, out, err = run_cli("revenue", "--n", str(n), "--samples", "1")
    assert (code, out) == (EXIT_BUDGET, "")
    assert f"--n {n} agents, over the cap of {cli.MAX_REVENUE_AGENTS}" in err
    code, _, err = run_cli("revenue", "--n", str(cli.MAX_REVENUE_AGENTS + 1), "--samples", "1")
    assert code == EXIT_BUDGET
    assert str(cli.MAX_REVENUE_AGENTS) in err


def test_a_revenue_run_of_no_samples_is_refused_before_any_work(monkeypatch):
    # at the agent cap the exact recursion alone takes seconds
    for name in ("optimal_thresholds_uniform", "expected_revenue_recursive"):
        monkeypatch.setattr(cli, name, _never)
    for samples in ("0", "-3"):
        code, out, err = run_cli("revenue", "--n", "1000000", "--samples", samples)
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", "error: need at least one sample\n")


def test_revenue_estimate_is_seeded():
    code, out, _ = run_cli("revenue", "--n", "1", "--samples", "1000000", "--seed", "3")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["exact"] == "1/4"
    assert results["estimate"]["mean"] == 0.2497875
    assert results["estimate"]["seed"] == 3
    assert results["abs_error"] < 0.005


def test_revenue_estimate_has_the_bits_of_a_sample_by_sample_walk():
    from test_optimal import _slow_revenue

    code, out, _ = run_cli("revenue", "--n", "3", "--samples", "100000", "--seed", "42")
    assert code == EXIT_OK
    estimate = json.loads(out)["results"]["estimate"]
    line = [float(t) for t in cli.optimal_thresholds_uniform(3).in_line_order()]
    ref = _slow_revenue(line, 100_000, 42)
    assert estimate["mean"] == float(ref.mean())
    assert estimate["std_error"] == float(ref.std(ddof=1) / math.sqrt(100_000))


def test_only_revenue_takes_a_seed(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    cluster = write(tmp_path, "cluster.spec", CLUSTER_SPITE_SPEC)
    # no other command draws a random number, so none accepts a seed
    for argv in (
        ("verify", "--spec", spec),
        ("enumerate", "--grid", "0,1"),
        ("thresholds", "--n", "2"),
        ("regions", "--payments", "10=1,01=1,11=2"),
        ("multi", "--spec", cluster),
    ):
        with pytest.raises(SystemExit) as caught:
            run_cli(*argv, "--seed", "1")
        assert caught.value.code == EXIT_INPUT_ERROR
        code, out, _ = run_cli(*argv)
        assert "seed" not in json.loads(out)["config"]
    code, out, _ = run_cli("revenue", "--n", "1", "--samples", "1000", "--seed", "3")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["seed"] == 3


def test_regions_with_lattice_classification():
    code, out, _ = run_cli(
        "regions", "--payments", "10=4,01=3,11=6", "--box", "0,8", "--step", "2"
    )
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    by_bundle = {r["bundle"]: r for r in results["regions"]}
    assert [iq["text"] for iq in by_bundle["10"]["inequalities"]] == [
        "x1 > 4",
        "x1 - x2 > 1",
        "x2 < 2",
    ]
    assert len(results["lattice"]) == 25
    corner = [p for p in results["lattice"] if p["point"] == ["8", "8"]]
    assert corner[0]["bundles"] == ["11"]


def test_regions_readme_example_is_within_the_cap():
    code, out, _ = run_cli("regions", "--payments", "10=4,01=3,11=6", "--box", "0,8", "--step", "1/2")
    assert code == EXIT_OK
    lattice = json.loads(out)["results"]["lattice"]
    assert len(lattice) == 17**2
    assert lattice[1] == {"point": ["0", "1/2"], "bundles": ["00"]}


def _never(*args, **kwargs):
    raise AssertionError("an oversized run started work")


def test_an_oversized_regions_lattice_exits_3_before_any_work(monkeypatch):
    monkeypatch.setattr(cli, "classify_lattice", _never)
    code, out, err = run_cli(
        "regions", "--payments", "10=1,01=1,11=2", "--box", "0,1000", "--step", "1/1000"
    )
    assert (code, out) == (EXIT_BUDGET, "")
    assert "(1000001 values per axis)^2 = 1.000e+12 points" in err
    assert str(cli.MAX_LATTICE_POINTS) in err


def test_an_oversized_builtin_domain_exits_3_before_any_work(tmp_path, monkeypatch):
    for name in ("nonincreasing_marginal_vectors", "check_multi_ir", "check_multi_ic", "check_multi_sic"):
        monkeypatch.setattr(cli, name, _never)
    spec = write(tmp_path, "seq.spec", "kind: sequential\nitems: 3\nranking: 1,2\nthresholds: 2,1\n")
    code, out, err = run_cli("multi", "--spec", spec, "--max-marginal", "60")
    assert (code, out) == (EXIT_BUDGET, "")
    reads = 1576963521 * 2 * (1 + 2 * 39710)
    assert f"C(60 + 3, 3) = 39711 valuations per agent, so 1576963521 profiles and {reads:.3e} payoff reads" in err
    assert str(cli.MAX_PAYOFF_READS) in err


def test_a_builtin_domain_past_2_to_the_25_valuations_is_refused_on_a_bound(tmp_path, monkeypatch):
    # C(m + k, k) >= 2^min(m, k), so from min(m, k) = 25 on the bound alone is
    # over the cap and the count, whose digits grow with min(m, k), is not
    # taken: at m = k = 10^6 taking it ran past 120 s
    exact = (
        "C(24 + 24, 24) = 3.225e+13 valuations per agent, so 1.040e+27 profiles and "
        "1.341e+41 payoff reads"
    )
    bound = (
        "M = C({0} + {1}, {1}) >= 2^{2} valuations per agent, so M^n profiles and "
        "M^n x n x (1 + n x (M - 1)) payoff reads at n=2"
    )
    for items, max_marginal, counts in (
        (24, 24, exact),
        (25, 25, bound.format(25, 25, 25)),
        (10**6, 10**6, bound.format(10**6, 10**6, 10**6)),
        (10**6, 30, bound.format(30, 10**6, 30)),
    ):
        if counts is not exact:
            monkeypatch.setattr(cli, "marginal_vector_count", _never)
        spec = write(tmp_path, f"seq{items}.spec",
                     f"kind: sequential\nitems: {items}\nranking: 1,2\nthresholds: 1,1\n")
        code, out, err = run_cli("multi", "--spec", spec, "--max-marginal", str(max_marginal))
        assert (code, out, err) == (EXIT_BUDGET, "", (
            f"error: the built-in domain has {counts}, over the cap of 20000000\n"
        ))


def test_the_builtin_cap_admits_three_agents_at_max_marginal_4(tmp_path):
    # 3 agents, 3 items, max-marginal 4: 35^3 profiles, 13 248 375 payoff reads
    spec = write(tmp_path, "seq.spec", "kind: sequential\nitems: 3\nranking: 1,2,3\nthresholds: 2,1,3\n")
    code, _, err = run_cli("multi", "--spec", spec, "--max-marginal", "4", "--props", "ir")
    assert code in (EXIT_OK, EXIT_PROPERTY_FAIL), err


def test_large_candidate_domains_run_to_a_verdict(tmp_path):
    # a given truth reads 1 + 3 * 21 of the 22^3 profiles
    lines = ["kind: cluster", "items: 1", "ranking: 1,2,3"]
    for agent in (1, 2, 3):
        lines.append(f"thresholds[{agent}]: 1=1")
        lines += [f"candidate[{agent}]: 1={k}" for k in range(1, 23)]
    spec = write(tmp_path, "big.spec", "\n".join(lines) + "\n")
    code, out, err = run_cli("multi", "--spec", spec, "--props", "ir,ic,sic")
    assert code in (EXIT_OK, EXIT_PROPERTY_FAIL), err
    assert json.loads(out)["results"]["domain_sizes"] == [22, 22, 22]


def test_a_multi_run_allocates_each_profile_once(tmp_path, monkeypatch):
    calls = []

    def counting(spec, bids):
        calls.append(bids)
        return sequential_allocate_general(spec, bids)

    monkeypatch.setattr(cli, "sequential_allocate_general", counting)
    spec = write(tmp_path, "seq.spec", "kind: sequential\nitems: 2\nranking: 1,2\nthresholds: 2,1\n")
    code, _, _ = run_cli("multi", "--spec", spec, "--max-marginal", "2", "--props", "ir,ic,sic,esic")
    assert code == EXIT_OK
    assert len(calls) == len(set(calls)) == 6**2


@pytest.mark.parametrize(
    "spec_text, estimate",
    [
        ("kind: sequential\nitems: 70\nranking: 1\nthresholds: 1\ncandidate[1]:\n", "1 x 2^70"),
        (f"kind: cluster\nitems: 22\nranking: 1\nthresholds[1]: {'1' * 22}=1\n", "1 x 2^22"),
    ],
    ids=["sequential-items-70", "cluster-items-22"],
)
def test_a_spec_file_over_the_bundle_table_cap_exits_3_before_any_table(
    tmp_path, monkeypatch, spec_text, estimate
):
    monkeypatch.setattr(specfile, "parse_bundle_amounts", _never)
    monkeypatch.setattr(specfile.BundleValuation, "from_map", _never)
    spec = write(tmp_path, "big.spec", spec_text)
    code, out, err = run_cli("multi", "--spec", spec)
    assert (code, out) == (EXIT_BUDGET, "")
    assert f"{estimate} bundle-table entries" in err
    assert str(specfile.MAX_BUNDLE_TABLE_ENTRIES) in err


@pytest.mark.parametrize("digits", [20, 40, 70])
def test_regions_name_a_few_missing_bundles_of_a_wide_list(digits):
    code, out, err = run_cli("regions", "--payments", "1" * digits + "=1")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert f"prices cover 1 of the 2^{digits} - 1 nonempty bundles; missing: {{a1}}, {{a2}}, {{a1,a2}}, ...\n" in err


def test_an_oversized_region_system_exits_3_before_any_inequality(monkeypatch):
    monkeypatch.setattr(multiitem, "LinearInequality", _never)
    bundles = ["".join(bits) for bits in itertools.product("01", repeat=9)][1:]
    code, out, err = run_cli("regions", "--payments", ",".join(f"{b}={b.count('1')}" for b in bundles))
    assert (code, out) == (EXIT_BUDGET, "")
    assert "512 attainable bundles make 512 x 511 = 261632 region inequalities" in err
    assert str(multiitem.MAX_REGION_INEQUALITIES) in err


def test_an_oversized_regions_classification_exits_3_before_any_work(monkeypatch):
    monkeypatch.setattr(cli, "classify_lattice", _never)
    bundles = ["".join(bits) for bits in itertools.product("01", repeat=8)][1:]
    code, out, err = run_cli(
        "regions", "--payments", ",".join(f"{b}={b.count('1')}" for b in bundles),
        "--box", "0,3", "--step", "1",
    )
    assert (code, out) == (EXIT_BUDGET, "")
    assert "65536 lattice points against 256 attainable bundles takes 16777216 comparisons" in err
    assert str(cli.MAX_LATTICE_CLASSIFICATIONS) in err


def test_regions_rejects_malformed_payment_lists():
    code, _, err = run_cli("regions", "--payments", "10=4,oops")
    assert code == EXIT_INPUT_ERROR
    assert err
    code, _, err = run_cli("regions", "--payments", "10=4,1=3")
    assert code == EXIT_INPUT_ERROR
    assert "one digit per item" in err


def test_regions_rejects_a_bundle_listed_twice():
    code, out, err = run_cli("regions", "--payments", "10=1,01=1,11=2,10=3")
    assert code == EXIT_INPUT_ERROR
    assert "bundle '10' is listed twice" in err
    assert out == ""


def test_regions_lattice_needs_both_box_and_step():
    payments = ("regions", "--payments", "10=1,01=1,11=2")
    for flags in (("--step", "1/2"), ("--box", "0,2")):
        code, out, err = run_cli(*payments, *flags)
        assert code == EXIT_INPUT_ERROR
        assert "a lattice needs both --box and --step" in err
        assert out == ""


def test_regions_accept_an_infinite_price():
    code, out, _ = run_cli("regions", "--payments", "10=4,01=inf,11=6")
    assert code == EXIT_OK
    by_bundle = {r["bundle"]: r for r in json.loads(out)["results"]["regions"]}
    assert by_bundle["01"]["payment"] == "inf"
    assert by_bundle["01"]["attainable"] is False


def test_multi_flags_the_spite_swap(tmp_path):
    spec = write(tmp_path, "cluster.spec", CLUSTER_SPITE_SPEC)
    code, out, _ = run_cli("multi", "--spec", spec, "--props", "ir,ic,sic")
    assert code == EXIT_PROPERTY_FAIL
    results = json.loads(out)["results"]
    verdicts = {r["property"]: r["passed"] for r in results["reports"]}
    assert verdicts == {"IR": True, "IC": True, "SIC": False}
    witness = [r for r in results["reports"] if not r["passed"]][0]["witness"]
    assert witness["agent"] == 1  # rendered 1-based
    assert witness["utilities_before"] == ["0", "1/2"]
    assert witness["utilities_after"] == ["0", "0"]


def test_multi_checks_esic_on_request_only(tmp_path):
    spec = write(tmp_path, "cluster.spec", CLUSTER_SPITE_SPEC)
    code, out, _ = run_cli("multi", "--spec", spec)
    assert [r["property"] for r in json.loads(out)["results"]["reports"]] == ["IR", "IC", "SIC"]
    code, out, _ = run_cli("multi", "--spec", spec, "--props", "esic")
    assert code == EXIT_PROPERTY_FAIL
    (report,) = json.loads(out)["results"]["reports"]
    assert report["property"] == "ESIC" and report["passed"] is False
    assert report["witness"]["utilities_after"] == ["0", "0"]


def test_multi_sequential_uses_the_builtin_menu(tmp_path):
    spec = write(tmp_path, "seq.spec", "kind: sequential\nitems: 2\nranking: 1,2\nthresholds: 2,1\n")
    code, out, _ = run_cli("multi", "--spec", spec, "--max-marginal", "2")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["all_passed"] is True


def test_multi_cluster_requires_candidates(tmp_path):
    spec = write(
        tmp_path,
        "c.spec",
        "kind: cluster\nitems: 2\nranking: 1,2\n"
        "thresholds[1]: 10=1, 01=1, 11=2\nthresholds[2]: 10=1, 01=1, 11=2\n",
    )
    code, _, err = run_cli("multi", "--spec", spec)
    assert code == EXIT_INPUT_ERROR
    assert "candidate" in err


def test_unknown_property_name(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    code, _, err = run_cli("verify", "--spec", spec, "--props", "ir,bogus")
    assert code == EXIT_INPUT_ERROR
    assert "bogus" in err


@pytest.mark.parametrize("command, spec_text", [("verify", THRESHOLD_SPEC), ("multi", CLUSTER_SPITE_SPEC)])
def test_empty_property_list(tmp_path, command, spec_text):
    spec = write(tmp_path, "mechanism.spec", spec_text)
    code, out, err = run_cli(command, "--spec", spec, "--props", ",")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert "--props names no property" in err


_NO_NUMERICS_SCRIPT = """
import contextlib, io, json, sys
import spitefree, spitefree.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [spitefree.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(codes, sorted(m for m in ("numpy", "mpmath") if m in sys.modules))
"""


def test_every_command_but_revenue_runs_on_the_standard_library_alone(tmp_path):
    spec = write(tmp_path, "t.spec", THRESHOLD_SPEC)
    seq = write(tmp_path, "seq.spec", "kind: sequential\nitems: 2\nranking: 1,2\nthresholds: 2,1\n")
    runs = [
        ["verify", "--spec", spec],
        ["enumerate", "--grid", "0,1,2"],
        ["thresholds", "--n", "3"],
        ["thresholds", "--n", "20"],
        ["regions", "--payments", "10=4,01=3,11=6", "--box", "0,8", "--step", "1/2"],
        ["multi", "--spec", seq, "--max-marginal", "2"],
    ]
    src = os.path.dirname(os.path.dirname(spitefree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMERICS_SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


# One run of each command on a fixed input, with the whole report less its
# wall time, stderr and the exit code pinned in tests/cli_golden.txt: the
# order of the config keys, the report's layout and every message.
_GOLDEN_SPECS = {
    "threshold.spec": "kind: threshold\nranking: 2,1\nthresholds: 1,inf\n",
    "second.spec": SECOND_PRICE_SPEC,
    "null10.spec": "kind: null\nn: 10\n",
    "cluster.spec": CLUSTER_SPITE_SPEC,
    "sequential.spec": "kind: sequential\nitems: 2\nranking: 1,2\nthresholds: 2,1\n",
}
_GOLDEN_RUNS = (
    "verify --spec threshold.spec",
    "verify --spec second.spec --grid 0,1 --props ir,ic,sic,esic,anonymous,efficient,winner_price,payments",
    "verify --spec threshold.spec --format text",
    "enumerate --grid 0,1,2",
    "thresholds --n 3",
    "revenue --n 2 --samples 1000 --seed 7",
    "regions --payments 10=4,01=3,11=6 --box 0,2 --step 2",
    "multi --spec cluster.spec",
    "multi --spec sequential.spec --max-marginal 1",
    "verify --spec second.spec",
    "verify --spec null10.spec --grid 0,1 --props anonymous",
)


def _golden_blocks():
    with open(os.path.join(os.path.dirname(__file__), "cli_golden.txt"), encoding="utf-8") as handle:
        blocks = handle.read().split("\n=== ")
    return dict(block.lstrip("= ").split("\n", 1) for block in blocks)


def _golden_block(command):
    code, out, err = run_cli(*command.split())
    out = re.sub(r'("?wall_time_s"?: )[0-9.e-]+', r"\g<1>~", out)
    return f"exit: {code}\nstderr:\n{err}stdout:\n{out}"


@pytest.mark.parametrize("command", _GOLDEN_RUNS)
def test_reports_match_their_golden_text(tmp_path, monkeypatch, command):
    for name, text in _GOLDEN_SPECS.items():
        write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert _golden_block(command) == _golden_blocks()[command]
