import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lftcipher
from conftest import inv_fermat, mul_naive
from lftcipher.gf2n import NEG_INF_DEGREE, BinaryPoly, FieldSpec, field
from lftcipher.polyfind import enumerate_classified


# independent schoolbook oracle, deliberately separate from the library path
def oracle_mul(a: int, b: int, reduction: int, n: int) -> int:
    prod = 0
    for k in range(n):
        if b >> k & 1:
            prod ^= a << k
    for deg in range(2 * n - 2, n - 1, -1):
        if prod >> deg & 1:
            prod ^= reduction << (deg - n)
    return prod


class TestBinaryPoly:
    def test_zero_degree_is_negative_infinity_sentinel(self):
        assert BinaryPoly(0).degree == NEG_INF_DEGREE
        assert BinaryPoly(0).degree < BinaryPoly(1).degree

    def test_degrees(self):
        assert BinaryPoly(1).degree == 0
        assert BinaryPoly(0x11D).degree == 8

    def test_parse_hex_and_monomials(self):
        assert BinaryPoly.parse("0x11D").bits == 0x11D
        assert BinaryPoly.parse("285").bits == 285
        assert BinaryPoly.parse("0b100011101").bits == 0x11D
        assert BinaryPoly.parse("x^8+x^4+x^3+x^2+1").bits == 0x11D
        assert BinaryPoly.parse("x^4 + x^3 + 1").bits == 0b11001
        assert BinaryPoly.parse("x").bits == 2
        assert BinaryPoly.parse("1").bits == 1

    def test_print_round_trip(self):
        for bits in (1, 2, 3, 0x11D, 0x1A9, 0b10101):
            p = BinaryPoly(bits)
            assert BinaryPoly.parse(p.monomials()) == p
            assert BinaryPoly.parse(p.to_hex()) == p

    def test_monomial_string(self):
        assert BinaryPoly(0x11D).monomials() == "x^8+x^4+x^3+x^2+1"
        assert BinaryPoly(3).monomials() == "x+1"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            BinaryPoly.parse("x^2*y")
        with pytest.raises(ValueError):
            BinaryPoly.parse("x+x")

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            BinaryPoly(-1)


class TestFieldSpecConstruction:
    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="not primitive"):
            FieldSpec(0b10101)  # x^4+x^2+1 = (x^2+x+1)^2

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            FieldSpec((1 << 17) | 0b11)

    def test_primitive_field_has_tables(self, field_p1):
        assert len(field_p1.antilog_table) == 255
        assert len(field_p1.log_table) == 256

    def test_accepts_exactly_the_census_primitives(self):
        # every monic mask of degree 1..10, even constant terms included
        for n in range(1, 11):
            primitive = {r.poly.bits for r in enumerate_classified(n) if r.primitive}
            for bits in range(1 << n, 1 << (n + 1)):
                try:
                    FieldSpec(bits)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (bits in primitive), hex(bits)

    def test_irreducible_but_not_primitive_refused(self):
        # x^8+x^4+x^3+x+1 (the AES modulus): x has order 51
        with pytest.raises(ValueError, match="is not primitive") as info:
            FieldSpec(0x11B)
        assert str(info.value).startswith("x^8+x^4+x^3+x+1 is not primitive")

    @pytest.mark.parametrize("bits", [
        0b10101,  # x^4+x^2+1: reducible
        0x110,  # x^8+x^4: x divides it, and the powers of x cycle without 1
        0x100,  # x^8: x^8 reduces to 0
        0b10,  # x: x reduces to 0
    ])
    def test_named_refusals(self, bits):
        with pytest.raises(ValueError, match="not primitive"):
            FieldSpec(bits)

    def test_refusal_of_cycling_modulus_is_bounded(self):
        # an unbounded walk of x never ends on x^8+x^4; a subprocess with a
        # timeout turns such a hang into a failure
        code = (
            "from lftcipher.gf2n import FieldSpec\n"
            "try:\n"
            "    FieldSpec(0x110)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lftcipher.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=30)
        assert run.returncode == 0, run.stderr
        assert "not primitive" in run.stdout

    def test_field_factory_shares_specs(self):
        assert field(0x11D) is field(0x11D)


class TestMul:
    def test_identity_and_annihilator(self, field_p1):
        for a in range(256):
            assert field_p1.mul(a, 1) == a
            assert field_p1.mul(a, 0) == 0

    def test_x_times_x7_reduces(self, field_p1):
        # x * x^7 = x^8 == x^4+x^3+x^2+1 mod p1
        expected = oracle_mul(0x02, 0x80, 0x11D, 8)
        assert expected == 0x1D
        assert field_p1.mul(0x02, 0x80) == expected

    def test_table_mul_equals_oracle_on_all_pairs(self, field_p1):
        # all 2^16 pairs: vectorized schoolbook multiply-then-reduce
        a = np.arange(256, dtype=np.int64)
        prod = np.zeros((256, 256), dtype=np.int64)
        for k in range(8):
            has_bit = (a >> k & 1).astype(bool)
            prod[:, has_bit] ^= a[:, None] << k
        for deg in range(14, 7, -1):
            hits = (prod >> deg & 1).astype(bool)
            prod[hits] ^= 0x11D << (deg - 8)
        table = np.array(
            [[field_p1.mul(x, y) for y in range(256)] for x in range(256)],
            dtype=np.int64,
        )
        assert np.array_equal(prod, table)

    def test_mul_naive_equals_mul(self, field_p1):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a, b = (int(v) for v in rng.integers(0, 256, 2))
            assert field_p1.mul(a, b) == mul_naive(field_p1, a, b)


class TestFieldAxioms:
    def test_gf16_axioms_exhaustive(self, gf16):
        els = range(16)
        for a in els:
            for b in els:
                assert gf16.mul(a, b) == gf16.mul(b, a)
        for a in els:
            for b in els:
                for c in els:
                    assert gf16.mul(gf16.mul(a, b), c) == gf16.mul(a, gf16.mul(b, c))
                    assert gf16.mul(a, b ^ c) == gf16.mul(a, b) ^ gf16.mul(a, c)

    def test_gf256_axioms_randomized(self, field_p1):
        rng = np.random.default_rng(3)
        triples = rng.integers(0, 256, (100_000, 3))
        for a, b, c in triples.tolist():
            ab = field_p1.mul(a, b)
            assert ab == field_p1.mul(b, a)
            assert field_p1.mul(ab, c) == field_p1.mul(a, field_p1.mul(b, c))
            assert field_p1.mul(a, b ^ c) == field_p1.mul(a, b) ^ field_p1.mul(a, c)


class TestInv:
    def test_inv_one(self, field_p1):
        assert field_p1.inv(1) == 1

    def test_inv_zero_raises(self, field_p1):
        with pytest.raises(ZeroDivisionError):
            field_p1.inv(0)

    def test_defining_property(self, field_p1):
        for a in range(1, 256):
            assert field_p1.mul(a, field_p1.inv(a)) == 1

    def test_log_inverse_equals_fermat_exhaustive(self, field_p1, gf16):
        for spec in (gf16, field_p1):
            for a in range(1, spec.order):
                assert spec.inv(a) == inv_fermat(spec, a)

    def test_gf16_inv_x_against_brute_force(self, gf16):
        candidates = [b for b in range(1, 16) if mul_naive(gf16, 2, b) == 1]
        assert candidates == [12]
        assert gf16.inv(2) == 12


class TestLogTables:
    def test_antilog_prefix(self, field_p1):
        assert field_p1.antilog_table[0] == 1
        assert field_p1.antilog_table[1] == 0x02

    def test_round_trip_identity(self, field_p1, gf16):
        for spec in (field_p1, gf16):
            for a in range(1, spec.order):
                assert spec.antilog_table[spec.log_table[a]] == a
            for k in range(spec.order - 1):
                assert spec.log_table[spec.antilog_table[k]] == k

    def test_antilog_is_bijection_on_nonzero(self, field_p1):
        assert sorted(field_p1.antilog_table) == list(range(1, 256))

    def test_period_is_exactly_group_order(self, field_p1):
        # one more multiply by x wraps back to 1
        last = field_p1.antilog_table[-1]
        assert mul_naive(field_p1, last, 2) == 1

    def test_log_by_power_iteration_oracle(self, field_p1):
        # iterate powers of x independently; x^4+x^2+x (= 22) appears at 239
        v, k = 1, 0
        seen = {}
        while v not in seen:
            seen[v] = k
            v = mul_naive(field_p1, v, 2)
            k += 1
        assert seen[22] == 239
        assert seen[8] == 3
        for a in range(1, 256):
            assert field_p1.log_table[a] == seen[a]

    def test_gf16_power_ladder(self, gf16):
        # alpha^4 = alpha^3+1 and onward up to alpha^15 = 1
        expected = [1, 2, 4, 8, 9, 11, 15, 7, 14, 5, 10, 13, 3, 6, 12]
        assert gf16.antilog_table == expected
        assert mul_naive(gf16, expected[-1], 2) == 1

