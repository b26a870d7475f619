"""Tests for the line and alignment arithmetic helpers."""

import pytest

from repro.memory.layout import WORDS_PER_LINE, align_up, line_address


class TestLineArithmetic:
    def test_line_address_aligns_down(self):
        assert line_address(0) == 0
        assert line_address(63) == 0
        assert line_address(64) == 64
        assert line_address(130) == 128

    def test_words_per_line(self):
        assert WORDS_PER_LINE == 8


class TestAlignUp:
    def test_already_aligned(self):
        assert align_up(128, 64) == 128

    def test_rounds_up(self):
        assert align_up(130, 64) == 192

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            align_up(10, 0)
