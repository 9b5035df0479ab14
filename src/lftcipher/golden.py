"""Embedded reference constants: the 16 primitive polynomials and the
originally published substitution table they accompany.

PRIMITIVE_POLY_MASKS is the complete set of degree-8 primitive polynomials
over GF(2) in the order the original design lists them; enumeration in
:mod:`lftcipher.polyfind` reproduces exactly this set.  REFERENCE_SBOX is
the published table for the first polynomial, kept verbatim for auditing:
as printed it repeats the values 23 and 157 and omits 167 and 238, so it
is not a bijection and is never used operationally.
"""

from __future__ import annotations

# index i (0-based) is p_{i+1}; p_1 = x^8+x^4+x^3+x^2+1 = 0x11D
PRIMITIVE_POLY_MASKS: tuple[int, ...] = (
    0x11D,  # x^8+x^4+x^3+x^2+1
    0x12B,  # x^8+x^5+x^3+x+1
    0x12D,  # x^8+x^5+x^3+x^2+1
    0x15F,  # x^8+x^6+x^4+x^3+x^2+x+1
    0x1C3,  # x^8+x^7+x^6+x+1
    0x165,  # x^8+x^6+x^5+x^2+1
    0x187,  # x^8+x^7+x^2+x+1
    0x18D,  # x^8+x^7+x^3+x^2+1
    0x1F5,  # x^8+x^7+x^6+x^5+x^4+x^2+1
    0x1E7,  # x^8+x^7+x^6+x^5+x^2+x+1
    0x14D,  # x^8+x^6+x^3+x^2+1
    0x1CF,  # x^8+x^7+x^6+x^3+x^2+x+1
    0x163,  # x^8+x^6+x^5+x+1
    0x169,  # x^8+x^6+x^5+x^3+1
    0x171,  # x^8+x^6+x^5+x^4+1
    0x1A9,  # x^8+x^7+x^5+x^3+1
)

# row-major 16x16: row = high nibble of the input byte, column = low nibble
REFERENCE_SBOX: tuple[int, ...] = (
    237, 225, 144, 236, 211, 25, 147, 20, 185, 127, 132, 195, 123, 136, 197, 170,
    109, 112, 61, 84, 183, 4, 186, 54, 234, 121, 177, 129, 215, 48, 41, 1,
    162, 228, 194, 150, 141, 175, 74, 91, 70, 50, 47, 85, 176, 40, 34, 102,
    119, 223, 202, 206, 7, 22, 98, 158, 190, 148, 69, 30, 38, 113, 179, 224,
    131, 104, 165, 178, 106, 169, 174, 116, 26, 154, 21, 90, 65, 157, 76, 64,
    45, 5, 253, 86, 172, 124, 180, 67, 247, 115, 42, 118, 217, 240, 189, 192,
    199, 12, 6, 125, 216, 254, 251, 231, 210, 227, 126, 160, 151, 107, 73, 139,
    77, 122, 188, 8, 16, 232, 153, 111, 143, 203, 24, 39, 95, 99, 78, 182,
    89, 213, 241, 171, 81, 9, 72, 13, 105, 205, 3, 59, 120, 245, 35, 168,
    137, 27, 66, 97, 79, 71, 55, 226, 201, 187, 214, 239, 80, 2, 208, 255,
    63, 156, 249, 135, 83, 248, 110, 140, 29, 163, 155, 219, 184, 49, 68, 173,
    200, 10, 149, 51, 23, 57, 157, 14, 94, 58, 15, 209, 18, 103, 193, 142,
    133, 11, 56, 181, 242, 43, 96, 196, 33, 229, 37, 220, 130, 60, 88, 212,
    46, 93, 44, 221, 62, 87, 114, 100, 75, 246, 230, 222, 204, 235, 19, 164,
    128, 233, 252, 117, 82, 146, 138, 17, 161, 191, 53, 218, 166, 52, 145, 23,
    159, 108, 198, 28, 92, 31, 243, 207, 32, 134, 244, 0, 250, 152, 36, 101,
)

# default linear fractional transform coefficients used by the family builder
DEFAULT_LFT: tuple[int, int, int, int] = (32, 22, 11, 8)
