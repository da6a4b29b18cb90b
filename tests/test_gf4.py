"""Exhaustive checks of the field tables and vector helpers."""

from pathlib import Path

import numpy as np
import pytest

from hlcd4 import gf4
from hlcd4.errors import LengthMismatchError

ELTS = range(4)


def test_addition_is_xor_group():
    for a in ELTS:
        assert gf4.add(a, 0) == a
        assert gf4.add(a, a) == 0
        for b in ELTS:
            assert gf4.add(a, b) == gf4.add(b, a)
            for c in ELTS:
                assert gf4.add(gf4.add(a, b), c) == gf4.add(a, gf4.add(b, c))


def test_multiplication_axioms():
    for a in ELTS:
        assert gf4.mul(a, 1) == a
        assert gf4.mul(a, 0) == 0
        for b in ELTS:
            assert gf4.mul(a, b) == gf4.mul(b, a)
            for c in ELTS:
                assert gf4.mul(gf4.mul(a, b), c) == gf4.mul(a, gf4.mul(b, c))
                assert gf4.mul(a, gf4.add(b, c)) == gf4.add(gf4.mul(a, b), gf4.mul(a, c))


def test_primitive_element_relation():
    w = gf4.OMEGA
    assert gf4.mul(w, w) == gf4.OMEGA2
    # w^2 + w + 1 = 0
    assert gf4.add(gf4.add(gf4.OMEGA2, w), 1) == 0
    # the nonzero elements form a cyclic group of order 3
    assert gf4.mul(gf4.OMEGA2, w) == 1


def test_inverses():
    for a in range(1, 4):
        assert gf4.mul(a, int(gf4.INV[a])) == 1


def test_conjugation_is_frobenius_square():
    for a in ELTS:
        assert gf4.conj(a) == gf4.mul(a, a)
        assert gf4.conj(gf4.conj(a)) == a
    for a in range(1, 4):
        assert gf4.mul(a, gf4.conj(a)) == 1


def test_symbols_round_trip():
    v = gf4.from_symbols("0 1 w W\n1w")
    assert v.tolist() == [0, 1, 2, 3, 1, 2]
    assert gf4.to_symbols(v) == "01wW1w"
    with pytest.raises(ValueError):
        gf4.from_symbols("01x")


def test_vector_builder():
    assert gf4.vector("1wW").tolist() == [1, 2, 3]
    assert gf4.vector([0, 3]).tolist() == [0, 3]
    with pytest.raises(ValueError):
        gf4.vector([0, 4])


@pytest.mark.parametrize(
    "values", [[257, 1], [-255, 1], [1.7, 1], [0, 4], np.array([257, 1]), np.array([1.0, 0.0])]
)
def test_entries_are_checked_before_the_cast(values):
    # A uint8 cast would wrap 257 and -255 to 1 and truncate 1.7 to 1.
    for build in (gf4.elements, gf4.vector):
        with pytest.raises(ValueError, match="entries must be in 0..3"):
            build(values)


def test_elements_accepts_integer_and_bool_entries():
    assert gf4.elements(np.array([3, 0, 2], dtype=np.int64)).tolist() == [3, 0, 2]
    assert gf4.elements(np.array([True, False])).tolist() == [1, 0]
    x = np.array([[1, 2]], dtype=np.uint8)
    assert gf4.elements(x) is x
    assert gf4.elements([]).dtype == np.uint8


def test_vector_ops(rng):
    x = gf4.from_symbols("1w0W")
    y = gf4.from_symbols("01wW")
    assert gf4.vadd(x, y).tolist() == [gf4.add(a, b) for a, b in zip(x, y)]
    assert gf4.scale(gf4.OMEGA, x).tolist() == [gf4.mul(2, a) for a in x]
    assert gf4.weight(x) == 3
    assert gf4.conj_vector(x).tolist() == [gf4.conj(a) for a in x]
    with pytest.raises(LengthMismatchError):
        gf4.vadd(x, y[:3])


def test_hermitian_inner_sesquilinear(rng):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        x = rng.integers(0, 4, size=n, dtype=np.uint8)
        y = rng.integers(0, 4, size=n, dtype=np.uint8)
        z = rng.integers(0, 4, size=n, dtype=np.uint8)
        c = int(rng.integers(0, 4))
        ip = gf4.hermitian_inner
        # conjugate symmetry and additivity
        assert ip(x, y) == gf4.conj(ip(y, x))
        assert ip(gf4.vadd(x, z), y) == gf4.add(ip(x, y), ip(z, y))
        # linear in the first slot, conjugate-linear in the second
        assert ip(gf4.scale(c, x), y) == gf4.mul(c, ip(x, y))
        assert ip(x, gf4.scale(c, y)) == gf4.mul(gf4.conj(c), ip(x, y))


def test_self_inner_product_is_weight_parity(rng):
    # (v, v)_h = wt(v) mod 2, since a * conj(a) = 1 for every nonzero a.
    for _ in range(300):
        n = int(rng.integers(1, 20))
        v = rng.integers(0, 4, size=n, dtype=np.uint8)
        assert gf4.hermitian_inner(v, v) == gf4.weight(v) % 2


def test_hermitian_inner_edge_cases():
    assert gf4.hermitian_inner(np.array([], dtype=np.uint8), np.array([], dtype=np.uint8)) == 0
    with pytest.raises(LengthMismatchError):
        gf4.hermitian_inner(gf4.vector("1"), gf4.vector("11"))


# --- the packed bit-plane format -------------------------------------------


def test_plane_multiples_match_mul():
    # every symbol times every factor 1, w, w^2: on the planes of one symbol
    # as Python ints, and on all four symbols packed into one byte per plane
    for a in ELTS:
        for f, (p0, p1) in zip((1, 2, 3), gf4._plane_multiples(a & 1, a >> 1)):
            assert (p0 | p1 << 1) == gf4.mul(f, a)
    symbols = np.arange(4, dtype=np.uint8)
    planes = gf4._pack_planes(symbols, 1)
    for f, pair in zip((1, 2, 3), gf4._plane_multiples(planes[0], planes[1])):
        assert all(p.dtype == np.uint8 for p in pair)
        assert gf4._unpack_planes(np.stack(pair), 4).tolist() == gf4.MUL[f].tolist()


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 63, 64, 65, 129])
def test_pack_planes_round_trip(rng, m):
    # symbol j at bit j % 8 of byte j // 8 of each plane, zero padding to
    # the requested size, and unpacking restores the symbols, with and
    # without leading batch axes
    for batch in ((), (3,), (2, 3)):
        a = rng.integers(0, 4, size=batch + (m,), dtype=np.uint8)
        for size in (-(-m // 8), -(-m // 8) + 3):
            planes = gf4._pack_planes(a, size)
            assert planes.shape == (2,) + batch + (size,) and planes.dtype == np.uint8
            assert np.array_equal(gf4._unpack_planes(planes, m), a)
            for index in np.ndindex(batch):
                lo, hi = (int.from_bytes(p[index].tobytes(), "little") for p in planes)
                assert lo == sum(int(s & 1) << j for j, s in enumerate(a[index]))
                assert hi == sum(int(s >> 1) << j for j, s in enumerate(a[index]))


def test_packing_has_one_owner():
    # the packed format is written once, here: no other module packs or
    # unpacks bits on its own ("packbits" also matches "unpackbits")
    sources = Path(gf4.__file__).parent.glob("*.py")
    others = [p.name for p in sources if p.name != "gf4.py" and "packbits" in p.read_text()]
    assert others == []
