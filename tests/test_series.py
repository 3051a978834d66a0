"""Truncated integer series used for the Hilbert bookkeeping."""

from slcc import series


def _geometric(degree: int, bound: int) -> list[int]:
    """1 / (1 - q^degree) truncated: 1 + q^d + q^2d + ..."""
    out = [0] * (bound + 1)
    for k in range(0, bound + 1, degree):
        out[k] = 1
    return out


def test_geometric():
    assert _geometric(2, 7) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_poly_ring_hilbert_matches_product_of_geometrics():
    bound = 20
    degrees = [2, 4, 6]
    direct = series.poly_ring_hilbert(degrees, bound)
    product = series.one(bound)
    for d in degrees:
        product = series.series_mul(product, _geometric(d, bound), bound)
    assert direct == product


def test_rank_one_coinvariant_identity():
    # 1/(1-q^2) == 1/(1-q^4) * (1 + q^2), the smallest freeness certificate
    bound = 16
    lhs = _geometric(2, bound)
    rhs = series.series_mul(
        _geometric(4, bound), series.series_from_degrees([0, 2], bound), bound
    )
    assert lhs == rhs


def test_series_from_degrees_counts_multiplicity():
    assert series.series_from_degrees([0, 2, 2, 5], 4) == [1, 0, 2, 0, 0]

