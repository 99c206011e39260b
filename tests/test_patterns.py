"""Tests for access patterns and firing-threshold tables.

The threshold computations are checked two ways: against hand-worked golden
tables, and against the brute-force timeline oracle from ``conftest``, which
shares no code (and no algebra) with the closed form under test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patflow import (
    AccessPattern,
    AllZero,
    EmptyPattern,
    FiringThresholds,
    MixedNonZeroValues,
    compute_fifo_thresholds,
    compute_registered_thresholds,
    divisor_refinements,
    validate_pattern,
)

from conftest import oracle_thresholds, zero_n_patterns


# ---------------------------------------------------------------------------
# Pattern validation
# ---------------------------------------------------------------------------

class TestValidatePattern:
    def test_accepts_zero_n_pattern(self):
        p = validate_pattern([0, 2, 2])
        assert p.phases == (0, 2, 2)
        assert p.value == 2
        assert p.total == 4
        assert p.active_phases == 2
        assert len(p) == 3

    def test_accepts_all_active(self):
        p = validate_pattern([3, 3, 3])
        assert p.value == 3
        assert p.total == 9

    def test_single_phase(self):
        p = validate_pattern([20])
        assert p.value == 20
        assert p.total == 20
        assert len(p) == 1

    def test_str_form(self):
        assert str(validate_pattern([0, 1, 1])) == "[0,1,1]"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPattern):
            validate_pattern([])

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            validate_pattern([0, 0, 0])

    def test_mixed_values_rejected(self):
        with pytest.raises(MixedNonZeroValues):
            validate_pattern([1, 2])

    def test_negative_rejected(self):
        with pytest.raises(MixedNonZeroValues):
            validate_pattern([-1, 1])

    def test_existing_pattern_passes_through(self):
        p = validate_pattern([0, 1])
        assert validate_pattern(p) == p


# ---------------------------------------------------------------------------
# Golden threshold tables
# ---------------------------------------------------------------------------

class TestGoldenTables:
    def test_worked_example(self):
        ft = compute_fifo_thresholds(validate_pattern([0, 1, 1]),
                                     validate_pattern([1, 1, 1, 1]))
        assert ft.per_phase == (2, 2, 3)
        assert ft.idle == 4
        assert ft.entries == (2, 2, 3, 4)

    def test_worked_example_str(self):
        ft = compute_fifo_thresholds(validate_pattern([0, 1, 1]),
                                     validate_pattern([1, 1, 1, 1]))
        assert str(ft) == "[2,2,3] idle=4"

    def test_two_producer_three_consumer(self):
        ft = compute_fifo_thresholds(validate_pattern([0, 1]),
                                     validate_pattern([1, 1, 1]))
        assert ft.entries == (2, 2, 3)

    def test_registered_same_patterns(self):
        ft = compute_registered_thresholds(validate_pattern([2, 2, 2]),
                                           validate_pattern([2, 2, 2]))
        assert ft.entries == (2, 2, 4, 6)

    def test_registered_rate_mismatch(self):
        # three production phases of 2 against a single consuming burst of 6:
        # nothing helps mid-flight, so the full burst must be buffered.
        ft = compute_registered_thresholds(validate_pattern([2, 2, 2]),
                                           validate_pattern([6]))
        assert ft.entries == (6, 6, 6, 6)

    def test_idle_entry_equals_consumer_total(self):
        pp = validate_pattern([0, 4])
        cp = validate_pattern([4, 0, 4])
        assert compute_fifo_thresholds(pp, cp).idle == cp.total
        assert compute_registered_thresholds(pp, cp).idle == cp.total

    def test_matched_patterns_start_empty_same_cycle(self):
        # With same-cycle visibility a rate-matched consumer can start the
        # moment the producer does: every token arrives the cycle it is paid.
        p = validate_pattern([5, 5, 5, 5])
        assert compute_fifo_thresholds(p, p).entries == (0, 5, 10, 15, 20)

    def test_matched_patterns_need_one_phase_headstart_registered(self):
        # One cycle of register delay means the consumer must wait for the
        # first phase's tokens before starting alongside phase 1.
        p = validate_pattern([5, 5, 5, 5])
        assert compute_registered_thresholds(p, p).entries == (5, 5, 10, 15, 20)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    def test_exhaustive_small_patterns(self):
        pats = zero_n_patterns(4, 2)
        for pp in pats:
            for cp in pats:
                got = compute_fifo_thresholds(AccessPattern(pp), AccessPattern(cp))
                assert got.entries == oracle_thresholds(pp, cp), (pp, cp)

    def test_exhaustive_small_patterns_registered(self):
        pats = zero_n_patterns(4, 2)
        for pp in pats:
            for cp in pats:
                got = compute_registered_thresholds(AccessPattern(pp), AccessPattern(cp))
                assert got.entries == oracle_thresholds(pp, cp, registered=True), (pp, cp)

    @given(
        pp=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        cp=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    )
    @settings(max_examples=300)
    def test_arbitrary_phase_counts_match_oracle(self, pp, cp):
        # The closed form is defined for any non-negative phase counts, not
        # just the restricted {0, n} shape, so fuzz it over the general case.
        app, acp = AccessPattern(tuple(pp)), AccessPattern(tuple(cp))
        assert compute_fifo_thresholds(app, acp).entries == oracle_thresholds(tuple(pp), tuple(cp))
        assert (compute_registered_thresholds(app, acp).entries
                == oracle_thresholds(tuple(pp), tuple(cp), registered=True))

    @given(
        pp=st.tuples(st.integers(min_value=1, max_value=4),
                     st.lists(st.booleans(), min_size=1, max_size=12)),
        cp=st.tuples(st.integers(min_value=1, max_value=4),
                     st.lists(st.booleans(), min_size=1, max_size=12)),
    )
    @settings(max_examples=300)
    def test_zero_n_patterns_of_any_lengths_match_oracle(self, pp, cp):
        # Legal {0, n} patterns whose lengths differ widely, so a table
        # covers producers that finish long before the consumer and after it.
        (n, pmask), (m, cmask) = pp, cp
        pmask[0] = cmask[-1] = True  # never all zero
        pt = tuple(n if bit else 0 for bit in pmask)
        ct = tuple(m if bit else 0 for bit in cmask)
        app, acp = validate_pattern(pt), validate_pattern(ct)
        assert compute_fifo_thresholds(app, acp).entries == oracle_thresholds(pt, ct)
        assert (compute_registered_thresholds(app, acp).entries
                == oracle_thresholds(pt, ct, registered=True))

    @given(
        pp=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
        cp=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_registered_never_below_same_cycle(self, pp, cp):
        app, acp = AccessPattern(tuple(pp)), AccessPattern(tuple(cp))
        same = compute_fifo_thresholds(app, acp).entries
        reg = compute_registered_thresholds(app, acp).entries
        assert all(r >= s for r, s in zip(reg, same))

    @given(
        pp=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
        cp=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_entries_bounded_by_consumer_total(self, pp, cp):
        app, acp = AccessPattern(tuple(pp)), AccessPattern(tuple(cp))
        ft = compute_fifo_thresholds(app, acp)
        assert all(0 <= e <= acp.total for e in ft.entries)
        assert ft.entries[-1] == ft.idle == acp.total


# ---------------------------------------------------------------------------
# Divisor refinements
# ---------------------------------------------------------------------------

class TestDivisorRefinements:
    def test_twenty(self):
        rs = divisor_refinements(20)
        assert [list(r.phases) for r in rs] == [
            [20],
            [10, 10],
            [5, 5, 5, 5],
            [4, 4, 4, 4, 4],
            [2] * 10,
            [1] * 20,
        ]

    def test_total_preserved(self):
        for r in divisor_refinements(36):
            assert r.total == 36
            assert len(set(r.phases)) == 1

    def test_widest_first(self):
        lengths = [len(r) for r in divisor_refinements(12)]
        assert lengths == sorted(lengths)
        assert lengths[0] == 1 and lengths[-1] == 12

    def test_one(self):
        assert [r.phases for r in divisor_refinements(1)] == [(1,)]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            divisor_refinements(0)


# ---------------------------------------------------------------------------
# FiringThresholds value semantics
# ---------------------------------------------------------------------------

class TestFiringThresholds:
    def test_equality_and_hash(self):
        a = FiringThresholds((2, 2, 3, 4))
        b = FiringThresholds((2, 2, 3, 4))
        assert a == b
        assert hash(a) == hash(b)

    def test_per_phase_excludes_idle(self):
        ft = FiringThresholds((1, 2, 3))
        assert ft.per_phase == (1, 2)
        assert ft.idle == 3
