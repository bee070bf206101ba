"""Micro-batch partitioning helpers."""

import pytest

from repro.pipeline.partition import (
    pad_capacity,
    partition_slices,
    split_capacity,
)


class TestSplitCapacity:
    def test_even_split(self):
        assert split_capacity(8, 4) == 2

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            split_capacity(10, 4)

    def test_n_one(self):
        assert split_capacity(5, 1) == 5

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            split_capacity(8, 0)


class TestPadCapacity:
    def test_already_multiple(self):
        assert pad_capacity(8, 4) == 8

    def test_rounds_up(self):
        assert pad_capacity(9, 4) == 12
        assert pad_capacity(1, 8) == 8

    def test_n_one_identity(self):
        assert pad_capacity(7, 1) == 7

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pad_capacity(8, 0)

    def test_least_multiple_not_below_capacity(self):
        for n in range(1, 9):
            for capacity in range(0, 40):
                padded = pad_capacity(capacity, n)
                assert padded % n == 0
                assert capacity <= padded < capacity + n


class TestPartitionSlices:
    def test_cover_disjoint(self):
        slices = partition_slices(12, 3)
        covered = []
        for sl in slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(12))

    def test_equal_chunks(self):
        slices = partition_slices(16, 4)
        assert all(sl.stop - sl.start == 4 for sl in slices)

    def test_single_partition_is_the_whole_buffer(self):
        assert partition_slices(6, 1) == [slice(0, 6)]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            partition_slices(10, 4)

    def test_padded_capacity_always_partitions(self):
        """The MoE layer pads before it partitions, so every capacity
        splits into n equal, ordered, contiguous chunks."""
        for n in (1, 2, 3, 4, 8):
            for capacity in range(1, 30):
                padded = pad_capacity(capacity, n)
                slices = partition_slices(padded, n)
                assert len(slices) == n
                assert slices[0].start == 0 and slices[-1].stop == padded
                for a, b in zip(slices, slices[1:]):
                    assert a.stop == b.start
