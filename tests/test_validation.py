"""Tests for the field checks shared by the configuration dataclasses."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.validation import check_int, check_number


class TestCheckInt:
    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), 1.0, 2.5, "1", None, Fraction(1, 1),
    ])
    def test_non_integer_rejected(self, value):
        with pytest.raises(ValueError, match="n_workers must be an integer"):
            check_int("n_workers", value, 1)

    @pytest.mark.parametrize("value, minimum", [(0, 1), (-1, 0), (4, 5)])
    def test_below_minimum_rejected(self, value, minimum):
        with pytest.raises(ValueError, match=f"n_workers must be >= {minimum}"):
            check_int("n_workers", value, minimum)

    @pytest.mark.parametrize("value, minimum", [
        (0, 0), (1, 1), (7, 1), (2**40, 1), (np.int64(3), 1),
    ])
    def test_accepted(self, value, minimum):
        check_int("n_workers", value, minimum)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [
        True, np.bool_(False), "1", None, float("nan"), float("inf"),
        float("-inf"), -0.5, -1,
    ])
    @pytest.mark.parametrize("positive", [False, True])
    def test_rejected(self, value, positive):
        with pytest.raises(ValueError, match="duration must be a finite number"):
            check_number("duration", value, positive=positive)

    @pytest.mark.parametrize("zero", [0, 0.0])
    def test_zero_only_allowed_when_not_positive(self, zero):
        check_number("duration", zero, positive=False)
        with pytest.raises(ValueError, match="> 0"):
            check_number("duration", zero, positive=True)

    def test_message_names_bound_and_value(self):
        with pytest.raises(ValueError) as err:
            check_number("outage_rate", -2.0, positive=False)
        assert str(err.value) == (
            "outage_rate must be a finite number >= 0, got -2.0"
        )

    @pytest.mark.parametrize("value", [
        2, 2.5, 1e-12, np.float64(3.5), np.int64(4), Fraction(1, 2),
    ])
    @pytest.mark.parametrize("positive", [False, True])
    def test_accepted(self, value, positive):
        check_number("duration", value, positive=positive)
