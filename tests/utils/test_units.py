"""Unit constants and formatting."""

from repro.utils import (
    GB,
    GBITPS,
    GBPS,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    TFLOPS,
    fmt_bytes,
)


class TestConstants:
    def test_binary_multiples(self):
        assert KIB == 1024
        assert MIB == 1024**2
        assert GIB == 1024**3

    def test_decimal_multiples(self):
        """Vendors quote bandwidths in decimal bytes."""
        assert (KB, MB, GB) == (1000, 1000**2, 1000**3)
        assert GBPS == GB

    def test_bandwidth_units(self):
        assert GBPS == 1e9
        assert GBITPS == 1e9 / 8

    def test_tflops(self):
        assert TFLOPS == 1e12


class TestFormatting:
    def test_fmt_bytes_ranges(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2 * KIB) == "2.00 KiB"
        assert fmt_bytes(3 * MIB) == "3.00 MiB"
        assert fmt_bytes(40 * GIB) == "40.00 GiB"

    def test_fmt_bytes_switches_suffix_at_each_power_of_1024(self):
        assert fmt_bytes(KIB - 1) == "1023 B"
        assert fmt_bytes(KIB) == "1.00 KiB"
        assert fmt_bytes(MIB - KIB) == "1023.00 KiB"
        assert fmt_bytes(MIB) == "1.00 MiB"
        assert fmt_bytes(GIB) == "1.00 GiB"

    def test_fmt_bytes_fractions_and_zero(self):
        assert fmt_bytes(0) == "0 B"
        assert fmt_bytes(1536) == "1.50 KiB"
        assert fmt_bytes(2.5 * GIB) == "2.50 GiB"
        assert fmt_bytes(1024 * GIB) == "1024.00 GiB"

    def test_fmt_bytes_negative_uses_the_magnitude_suffix(self):
        """A memory delta (e.g. a saving) formats like its size."""
        assert fmt_bytes(-3 * MIB) == "-3.00 MiB"
        assert fmt_bytes(-512) == "-512 B"
