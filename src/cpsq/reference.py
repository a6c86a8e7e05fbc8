"""Regression anchor: every sum of squares of consecutive primes up to 5000.

There are exactly 91 representable values below that threshold, starting
4 = 2^2, 9 = 3^2, 13 = 2^2 + 3^2 and ending 4899 = 29^2 + 31^2 + 37^2 +
41^2. The list is frozen here so that both the test suite and the
``reference-values`` check of ``cpsq verify`` can compare a live
enumeration against it exactly.
"""

from __future__ import annotations

REFERENCE_LIMIT = 5000

REFERENCE_VALUES: tuple[int, ...] = (
    4, 9, 13, 25, 34, 38, 49,
    74, 83, 87, 121, 169, 170, 195,
    204, 208, 289, 290, 339, 361, 364,
    373, 377, 458, 529, 579, 628, 650,
    653, 662, 666, 819, 841, 890, 940,
    961, 989, 1014, 1023, 1027, 1179, 1348,
    1369, 1370, 1469, 1518, 1543, 1552, 1556,
    1681, 1731, 1802, 1849, 2020, 2189, 2209,
    2310, 2330, 2331, 2359, 2384, 2393, 2397,
    2692, 2809, 2981, 3050, 3150, 3171, 3271,
    3320, 3345, 3354, 3358, 3481, 3530, 3700,
    3721, 4011, 4058, 4061, 4350, 4489, 4519,
    4640, 4689, 4714, 4723, 4727, 4852, 4899,
)
