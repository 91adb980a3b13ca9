"""Float64 finite-difference gradchecks of ``conv2d`` on both layouts.

Every case checks the input, weight and bias gradients.  The cases
cover the geometries the two layouts special-case (pointwise, strided,
grouped, depthwise) and maps on both sides of ``KMAJOR_MIN_AREA``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import conv2d, gradcheck
from repro.autograd.ops_conv import KMAJOR_MIN_AREA, _out_size, use_kmajor

# name: (in_channels, out_channels, kernel, stride, padding, groups, side)
CASES = {
    "3x3-pad1-small": (2, 3, 3, 1, 1, 1, 5),
    "3x3-pad1-large": (2, 3, 3, 1, 1, 1, 12),
    "1x1-small": (3, 2, 1, 1, 0, 1, 5),
    "1x1-large": (3, 2, 1, 1, 0, 1, 12),
    "stride2-small": (2, 2, 3, 2, 1, 1, 8),
    "stride2-large": (2, 2, 3, 2, 1, 1, 24),
    "depthwise-small": (3, 3, 3, 1, 1, 3, 5),
    "depthwise-large": (3, 3, 3, 1, 1, 3, 12),
    "groups2-small": (4, 2, 3, 1, 1, 2, 5),
    "groups2-large": (4, 2, 3, 1, 1, 2, 12),
}


def _area(case):
    _, _, k, stride, padding, _, side = case
    return _out_size(side, k, stride, padding) ** 2


def test_cases_cover_both_layouts():
    layouts = {use_kmajor(_area(case), case[5]) for case in CASES.values()}
    assert layouts == {True, False}
    areas = [_area(case) for case in CASES.values()]
    assert min(areas) < KMAJOR_MIN_AREA <= max(areas)


@pytest.mark.parametrize("name", sorted(CASES))
def test_conv2d_gradcheck(name):
    c, o, k, stride, padding, groups, side = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    x = rng.standard_normal((2, c, side, side))
    weight = rng.standard_normal((o, c // groups, k, k))
    bias = rng.standard_normal(o)
    assert gradcheck(
        lambda xt, wt, bt: conv2d(
            xt, wt, bt, stride=stride, padding=padding, groups=groups
        ),
        [x, weight, bias],
    )
