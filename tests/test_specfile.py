from fractions import Fraction as F

import pytest

from spitefree.core import Grid, MechanismTable
from spitefree.mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
    tabulate,
)
from spitefree.money import INFINITY
from spitefree.multiitem import ClusterSpec, ClusterTieRule, SequentialSpec
from spitefree.specfile import SpecFileError, load_spec, parse_spec_text


def test_threshold_kind():
    loaded = parse_spec_text(
        """
        # a two-agent posted-price sale
        kind: threshold
        ranking: 2,1
        thresholds: 1, inf
        boundary_rule: no_allocation
        """
    )
    assert loaded.kind == "threshold"
    assert loaded.mechanism == ThresholdSpec(
        (2, 1), (F(1), INFINITY), BoundaryRule.NO_ALLOCATION
    )


def test_boundary_rule_defaults_to_allocating():
    loaded = parse_spec_text("kind: threshold\nranking: 1,2\nthresholds: 1,2\n")
    assert loaded.mechanism.boundary_rule is BoundaryRule.HIGHEST_RANK_AT_THRESHOLD


def test_simple_kinds():
    assert parse_spec_text("kind: null\nn: 3\n").mechanism == null_spec(3)
    assert parse_spec_text("kind: second_price\nn: 2\n").mechanism == SecondPriceMechanism(2)
    assert parse_spec_text("kind: first_price\nn: 2\n").mechanism == FirstPriceMechanism(2)


def test_table_kind_round_trips_through_tabulation():
    grid = Grid.from_text("0,1")
    table = tabulate(ThresholdSpec((1, 2), (F(1), F(1))), grid)
    lines = ["kind: table", "grid: 0,1", "n: 2"]
    for profile, out in table.rows:
        bids = ",".join(str(b) for b in profile)
        pays = ",".join(str(p) for p in out.payments)
        lines.append(f"row: {bids} -> {out.winner} ; {pays}")
    loaded = parse_spec_text("\n".join(lines))
    assert isinstance(loaded.mechanism, MechanismTable)
    assert loaded.mechanism == table


def test_sequential_kind():
    loaded = parse_spec_text(
        "kind: sequential\nitems: 3\nranking: 1,2\nthresholds: 2,1\n"
    )
    assert loaded.mechanism == SequentialSpec((1, 2), (F(2), F(1)))
    assert loaded.item_count == 3
    assert loaded.candidates is None


def test_cluster_kind_with_candidates():
    loaded = parse_spec_text(
        """
        kind: cluster
        items: 2
        ranking: 1,2
        thresholds[1]: 10=1, 01=1, 11=2
        thresholds[2]: 10=1, 01=1, 11=2
        tie: lowest_mask
        candidate[1]: 10=1, 01=1
        candidate[1]: 01=1
        candidate[2]: 01=3/2, 11=3/2
        """
    )
    spec = loaded.mechanism
    assert isinstance(spec, ClusterSpec)
    assert spec.tie_rule is ClusterTieRule.LOWEST_MASK
    assert spec.thresholds[0] == (F(0), F(1), F(1), F(2))
    assert [len(d) for d in loaded.candidates] == [2, 1]
    # first candidate per agent is the declared true valuation
    assert loaded.candidates[0][0].of_bundle(0b01) == 1
    assert loaded.candidates[1][0].of_bundle(0b11) == F(3, 2)


_FREE_BUNDLE = (
    "kind: cluster\nitems: 2\nranking: 1\nthresholds[1]: 10=1, 01=0, 11=1\n"
    "candidate[1]: 10=1, 01=0\ncandidate[1]: 11=0\n"
)


def test_canonical_source_reparses_identically():
    texts = [
        "kind: threshold\nranking: 1,2\nthresholds: 1,2\n",
        "kind: null\nn: 2\n",
        "kind: sequential\nitems: 3\nranking: 2,1\nthresholds: 1/2, 1\n",
        """
        kind: cluster
        items: 2
        ranking: 1,2
        thresholds[1]: 10=1, 01=1, 11=2
        thresholds[2]: 10=1, 01=1, 11=2
        candidate[1]: 10=1
        candidate[2]: 01=3/2
        """,
        # a free bundle stays in a cluster price list; a candidate's zero is dropped
        _FREE_BUNDLE,
    ]
    for text in texts:
        loaded = parse_spec_text(text)
        again = parse_spec_text(loaded.source)
        assert again.mechanism == loaded.mechanism
        assert again.candidates == loaded.candidates
        assert again.source == loaded.source


def test_canonical_source_keeps_cluster_zeros_and_drops_candidate_zeros():
    assert parse_spec_text(_FREE_BUNDLE).source == (
        "kind: cluster\nitems: 2\nranking: 1\nthresholds[1]: 10=1, 01=0, 11=1\n"
        "tie: largest_then_lowest_mask\ncandidate[1]: 10=1\ncandidate[1]:"
    )


def test_load_spec_reads_files(tmp_path):
    path = tmp_path / "mech.spec"
    path.write_text("kind: null\nn: 2\n")
    assert load_spec(str(path)).mechanism == null_spec(2)


def test_unknown_kind():
    with pytest.raises(SpecFileError, match="unknown kind 'junk'"):
        parse_spec_text("kind: junk\n")


def test_missing_kind():
    with pytest.raises(SpecFileError):
        parse_spec_text("n: 2\n")


def test_error_messages_carry_line_numbers():
    with pytest.raises(SpecFileError, match="line 3"):
        parse_spec_text("kind: threshold\nranking: 1,2\nthresholds: 1,0.5\n")
    with pytest.raises(SpecFileError, match="line 1"):
        parse_spec_text("nonsense line\n")


def test_field_sets_are_checked_per_kind():
    with pytest.raises(SpecFileError, match="does not belong"):
        parse_spec_text("kind: null\nn: 2\nranking: 1,2\n")
    with pytest.raises(SpecFileError):
        parse_spec_text("kind: threshold\nranking: 1,2\n")  # thresholds missing


def test_bad_ranking_is_rejected():
    with pytest.raises(SpecFileError):
        parse_spec_text("kind: threshold\nranking: 1,1\nthresholds: 1,2\n")


def test_incomplete_table_is_rejected():
    with pytest.raises(SpecFileError):
        parse_spec_text("kind: table\ngrid: 0,1\nn: 2\nrow: 0,0 -> 0 ; 0,0\n")


_CLUSTER = "kind: cluster\nitems: 1\nranking: 1,2\nthresholds[1]: 1=1\nthresholds[2]: 1=1\n"
_TABLE = "kind: table\ngrid: 0,1\nn: 1\nrow: 1 -> 1 ; 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "kind: threshold\nranking: 1,2\nthresholds: 1,2\nboundary_rule: sideways\n",
            "line 4: unknown boundary rule 'sideways'",
        ),
        (_CLUSTER + "tie: coin_flip\n", "line 6: unknown tie rule 'coin_flip'"),
        ("kind: null\nn: 2\nn: 3\n", "line 3: duplicate field 'n'"),
        (_TABLE + "row: 0 ; 0\n", "line 5: row must read 'bids -> winner ; payments'"),
        (_TABLE + "row: 0 -> 0\n", "line 5: row must read 'bids -> winner ; payments'"),
        (_TABLE + "row: 1 -> 0 ; 0\n", "line 5: duplicate row for profile '1'"),
        (
            "kind: sequential\nitems: 1\nranking: 1,2\nthresholds: 1,1\n"
            "candidate[1]: 1=1\ncandidate[2]: 1=1\ncandidate[3]: 1=1\n",
            "candidate[3] does not match any agent (n=2)",
        ),
        (_CLUSTER + "thresholds[1]: 1=2\n", "line 6: duplicate thresholds[1] line"),
        ("kind: second_price\nn: two\n", "line 2: expected an integer, got 'two'"),
        ("nonsense line\n", "line 1: expected 'key: value', got 'nonsense line'"),
        (
            "kind: threshold\nranking: 1\nthresholds: ,\n",
            "line 3: expected a comma-separated list of amounts",
        ),
        ("kind: threshold\nranking: 1,x\nthresholds: 1,2\n", "line 2: expected integers, got '1,x'"),
        ("n: 2\n", "line 1: file must start with a 'kind:' line"),
        ("# nothing\n\n", "empty mechanism file"),
        ("kind: threshold\nranking: 1,2\n", "kind 'threshold' requires a 'thresholds' field"),
        ("kind: null\nn: 2\nrow: 0,0 -> 0 ; 0,0\n", "line 3: kind 'null' takes no 'row:' lines"),
        (
            "kind: threshold\nranking: 1\nthresholds: 1\ncandidate[1]: 1=1\n",
            "line 4: field 'candidate'[..] does not belong to kind 'threshold'",
        ),
        (_CLUSTER + "candidate[1]: 1=1\n", "candidate lines must cover every agent; agent 2 has none"),
        (
            "kind: cluster\nitems: 1\nranking: 1,2\nthresholds[1]: 1=1\n",
            "cluster spec needs a thresholds[2] line",
        ),
        (_CLUSTER + "thresholds[3]: 1=1\n", "thresholds[3] does not match any agent (n=2)"),
        (
            "kind: cluster\nitems: 2\nranking: 1\nthresholds[1]: 10=1\n",
            "line 4: thresholds[1] must price every nonempty bundle; 2 missing",
        ),
        ("kind: table\ngrid: 0,1\nn: 1\nrow: 1 -> 1 ; 1\n", "table is missing profile (Fraction(0, 1),)"),
        (_TABLE + "row: 0 -> 2 ; 0\n", "line 5: winner code 2 out of range for 1 agents"),
        # both multi-item kinds refuse a negative item count, candidates or not
        ("kind: sequential\nitems: -1\nranking: 1\nthresholds: 1\n", "item count must be nonnegative"),
        (_CLUSTER.replace("items: 1", "items: -1"), "item count must be nonnegative"),
    ],
)
def test_spec_file_errors_name_their_cause(text, message):
    with pytest.raises(SpecFileError) as caught:
        parse_spec_text(text)
    assert str(caught.value) == message


def test_cluster_rows_must_price_every_nonempty_bundle():
    with pytest.raises(SpecFileError, match="must price every nonempty bundle"):
        parse_spec_text(
            "kind: cluster\nitems: 2\nranking: 1,2\n"
            "thresholds[1]: 10=1\nthresholds[2]: 10=1, 01=1, 11=2\n"
        )


def test_a_bundle_listed_twice_is_rejected_with_its_line():
    cluster = "kind: cluster\nitems: 2\nranking: 1\n"
    with pytest.raises(SpecFileError, match="line 4: bundle '10' is listed twice"):
        parse_spec_text(cluster + "thresholds[1]: 10=1, 01=1, 11=2, 10=5\n")
    with pytest.raises(SpecFileError, match="line 5: bundle '10' is listed twice"):
        parse_spec_text(cluster + "thresholds[1]: 10=1, 01=1, 11=2\ncandidate[1]: 10=1, 10=4\n")


def test_infinite_thresholds_are_single_item_only():
    loaded = parse_spec_text("kind: threshold\nranking: 1\nthresholds: inf\n")
    assert loaded.mechanism.thresholds == (INFINITY,)
    with pytest.raises(SpecFileError):
        parse_spec_text("kind: sequential\nitems: 2\nranking: 1\nthresholds: inf\n")
    with pytest.raises(SpecFileError, match="line 4"):
        parse_spec_text(
            "kind: cluster\nitems: 2\nranking: 1\nthresholds[1]: 10=1, 01=inf, 11=2\n"
        )
