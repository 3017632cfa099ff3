import itertools

import pytest
from hypothesis import given, strategies as st

from hlmkit.errors import ValidationError
from hlmkit.surprisal import SurprisalSequence
from hlmkit.uid import uid_superlinear, uid_variance
from oracles import uid_sl_formula, uid_var_formula

MU = 3.8845


def seq(*values, base="2"):
    return SurprisalSequence(doc_id="d", values=tuple(values), base=base)


class TestSuperlinear:
    def test_zero_surprisal_scores_zero(self):
        assert uid_superlinear(seq(0.0, 0.0, 0.0)) == 0.0

    def test_unit_surprisal_scores_one(self):
        assert uid_superlinear(seq(1.0, 1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_hand_case(self):
        # (2^1.25 + 4^1.25) / 2
        assert uid_superlinear(seq(2.0, 4.0)) == pytest.approx(4.0176342397489115, abs=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=32))
    def test_matches_direct_formula(self, values):
        got = uid_superlinear(seq(*values))
        assert got == pytest.approx(uid_sl_formula(values), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0, max_value=20), min_size=2, max_size=8),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.01, max_value=5),
    )
    def test_monotone_in_every_coordinate(self, values, idx, bump):
        idx = idx % len(values)
        bumped = list(values)
        bumped[idx] += bump
        assert uid_superlinear(seq(*bumped)) >= uid_superlinear(seq(*values))

    def test_uniform_minimizes_for_fixed_sum(self):
        # brute force: among same-sum grids, the even split scores lowest
        grid = [i * 0.5 for i in range(9)]
        for n in (2, 3, 4):
            for combo in itertools.product(grid, repeat=n):
                total = sum(combo)
                uniform = uid_superlinear(seq(*([total / n] * n)), k=1.25)
                assert uid_superlinear(seq(*combo), k=1.25) >= uniform - 1e-12

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError, match="k must be > 0, got 0.0"):
            uid_superlinear(seq(1.0), k=0.0)

    def test_negative_k_is_refused(self):
        with pytest.raises(ValidationError, match="k must be > 0, got -1"):
            uid_superlinear(seq(1.0), k=-1)


class TestVariance:
    def test_zero_at_language_mean(self):
        assert uid_variance(seq(MU, MU, MU)) == 0.0

    def test_symmetric_unit_deviations(self):
        assert uid_variance(seq(MU + 1, MU - 1)) == pytest.approx(1.0)

    def test_hand_case(self):
        got = uid_variance(seq(5.8845, 3.8845, 1.8845))
        assert got == pytest.approx(8.0 / 3.0, abs=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=32))
    def test_matches_direct_formula(self, values):
        got = uid_variance(seq(*values))
        assert got == pytest.approx(uid_var_formula(values), abs=1e-12)

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=16))
    def test_nonnegative_zero_iff_all_at_mean(self, values):
        got = uid_variance(seq(*values))
        assert got >= 0.0
        if got == 0.0:
            assert all(v == MU for v in values)

    def test_custom_mean(self):
        assert uid_variance(seq(2.0, 4.0), mu_lang=3.0) == pytest.approx(1.0)

