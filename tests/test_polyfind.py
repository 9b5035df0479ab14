import hashlib

import pytest

from conftest import is_irreducible_trial, walk_order_of_x
from lftcipher.gf2n import BinaryPoly, FieldSpec
from lftcipher.golden import PRIMITIVE_POLY_MASKS
from lftcipher.polyfind import (
    PolyClassification,
    count_irreducible,
    count_primitive,
    enumerate_classified,
)


def census_row(bits: int) -> PolyClassification:
    """The row of `enumerate_classified` that classifies one polynomial."""
    rows = {r.poly.bits: r for r in enumerate_classified(bits.bit_length() - 1)}
    return rows[bits]


class TestIrreducibility:
    def test_degree_two(self):
        assert census_row(0b111).irreducible  # x^2+x+1
        assert not census_row(0b101).irreducible  # x^2+1 = (x+1)^2

    def test_known_degree_eight(self):
        assert census_row(0x11D).irreducible
        assert is_irreducible_trial(0x11D)

    def test_quotient_modulus_gf16(self):
        assert census_row(0b11001).irreducible  # x^4+x^3+1
        assert is_irreducible_trial(0b11001)

    def test_perfect_square_counterexample(self):
        # x^4+x^2+1 factors as (x^2+x+1)^2 despite sometimes being quoted
        # as irreducible; both classifiers agree it is reducible
        assert not is_irreducible_trial(0b10101)
        assert not census_row(0b10101).irreducible

    def test_degree_zero_rejected(self):
        # FieldSpec's walk of x is the library's irreducibility test
        with pytest.raises(ValueError, match="degree >= 1"):
            FieldSpec(1)

    def test_accepts_binarypoly(self):
        assert FieldSpec(BinaryPoly(0x11D)).n == 8
        with pytest.raises(ValueError, match="not primitive"):
            FieldSpec(BinaryPoly(0b10101))


class TestCounts:
    def test_degree_eight(self):
        assert count_irreducible(8) == 30
        assert count_primitive(8) == 16

    def test_degree_one(self):
        assert count_irreducible(1) == 2  # x and x+1

    def test_degree_four(self):
        assert count_irreducible(4) == 3
        assert count_primitive(4) == 2

    def test_degree_two_primitive(self):
        assert count_primitive(2) == 1  # x^2+x+1

    def test_counts_match_enumeration_1_to_10(self):
        for n in range(1, 11):
            rows = enumerate_classified(n)
            assert sum(r.irreducible for r in rows) == count_irreducible(n)
            assert sum(r.primitive for r in rows) == count_primitive(n)


class TestBatchCensus:
    def test_matches_trial_division_and_walk_to_degree_12(self):
        for n in range(1, 13):
            for r in enumerate_classified(n):
                bits = r.poly.bits
                assert r.irreducible == is_irreducible_trial(bits), hex(bits)
                order = walk_order_of_x(bits) if r.irreducible else None
                assert r.order == order, hex(bits)
                assert r.primitive == (order == (1 << n) - 1), hex(bits)

    @pytest.mark.parametrize("n, digest", [
        (13, "dfc330b1253cd65fab952880f45b70c115e48f5c3e7aae79ba9960f7e1d0c004"),
        (14, "a0547bf4e38bca31ea0660978126ac913a4bf01fc94432e33496b796f6c5f74d"),
        (15, "bc029c5f11142973f2973b429025fb7607ff9ddd3926223c76e9c75bd9d6cb05"),
        (16, "301ff1f26ac9e50bf5c2c025fd472a82c0a24220eea1a9bdea35a87bf8f8e588"),
    ])
    def test_rows_pinned_at_degrees_13_to_16(self, n, digest):
        # rows of the earlier Rabin's-test classifier: a reference independent of the sieve
        rows = [(r.poly.bits, r.irreducible, r.primitive, r.order) for r in enumerate_classified(n)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_counts_at_degrees_13_to_16(self, n):
        rows = enumerate_classified(n)
        assert len(rows) == 1 << (n - 1)
        assert sum(r.irreducible for r in rows) == count_irreducible(n)
        assert sum(r.primitive for r in rows) == count_primitive(n)


class TestEnumeration:
    def test_degree_eight_census(self):
        rows = enumerate_classified(8)
        irreducible = [r for r in rows if r.irreducible]
        primitive = [r for r in rows if r.primitive]
        assert len(irreducible) == 30
        assert len(primitive) == 16
        assert {r.poly.bits for r in primitive} == set(PRIMITIVE_POLY_MASKS)

    def test_known_non_primitive_row(self):
        rows = {r.poly.bits: r for r in enumerate_classified(8)}
        row = rows[0x1B1]  # x^8+x^7+x^5+x^4+1
        assert row.irreducible and not row.primitive

    def test_primitive_orders_are_full(self):
        for r in enumerate_classified(8):
            if r.primitive:
                assert r.order == 255
            elif r.irreducible:
                assert r.order is not None and r.order < 255 and 255 % r.order == 0

    def test_primitive_order_confirmed_by_field_arithmetic(self):
        # independent route: walk x, x^2, ... one product at a time; a
        # FieldSpec exists only for the primitive rows, and its antilog table
        # is that walk
        for n in range(2, 11):
            for r in enumerate_classified(n):
                if r.primitive:
                    assert len(FieldSpec(r.poly.bits).antilog_table) == r.order, hex(r.poly.bits)
                elif r.irreducible:
                    assert walk_order_of_x(r.poly.bits) == r.order, hex(r.poly.bits)

    def test_degree_four_primitive_set(self):
        prim = {r.poly.bits for r in enumerate_classified(4) if r.primitive}
        assert prim == {0b10011, 0b11001}  # x^4+x+1 and x^4+x^3+1

    def test_degree_one_includes_x(self):
        rows = enumerate_classified(1)
        by_bits = {r.poly.bits: r for r in rows}
        assert by_bits[0b10].irreducible and not by_bits[0b10].primitive
        assert by_bits[0b10].order is None
        assert by_bits[0b11].primitive and by_bits[0b11].order == 1

    def test_output_sorted_ascending(self):
        for n in (4, 8):
            bits = [r.poly.bits for r in enumerate_classified(n)]
            assert bits == sorted(bits)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            enumerate_classified(0)
        with pytest.raises(ValueError):
            enumerate_classified(17)


@pytest.mark.parametrize("census", [count_irreducible, count_primitive, enumerate_classified])
@pytest.mark.parametrize("n", [0, 17])
def test_census_refuses_degrees_outside_1_to_16(census, n):
    # count_primitive factors 2^n - 1 by trial division: 2^61 - 1 is prime
    with pytest.raises(ValueError, match="degree must be in 1..16"):
        census(n)


class TestClassificationInvariants:
    def test_primitive_implies_irreducible(self):
        for n in range(1, 13):
            assert all(not r.primitive or r.irreducible for r in enumerate_classified(n)), n
