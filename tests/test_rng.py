"""The package's PCG64 stream against the installed numpy, bit for bit.

``ballcover._rng.Generator(seed)`` must draw what
``numpy.random.default_rng(seed)`` draws for ``uniform``, ``normal`` and
``integers(0, n)``: long runs of each method, interleaved sequences on
the seeds the searches use, and planted PCG64 states that send
``normal`` through every layer of the ziggurat, its fast path, its
wedge test and its tail, so that every entry of the ``wi``, ``ki`` and
``fi`` tables is confirmed against numpy's own.
"""

import math
from array import array

import numpy as np
import pytest

from ballcover._rng import _FI, _KI, _WI, Generator

N = 10**6
M128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)


def bits(values):
    return array("d", values).tobytes()


def test_a_million_uniforms():
    ours, theirs = Generator([7, 0]), np.random.default_rng([7, 0])
    assert bits([ours.uniform() for _ in range(N // 2)]) == theirs.uniform(size=N // 2).tobytes()
    assert bits(ours.uniform(-1.0, 2.5, N // 2)) == theirs.uniform(-1.0, 2.5, N // 2).tobytes()


def test_a_million_normals():
    ours, theirs = Generator(2024), np.random.default_rng(2024)
    assert bits(ours.normal(0.0, 1.0, N)) == theirs.normal(0.0, 1.0, N).tobytes()
    assert bits([ours.normal(0.5, 3.0) for _ in range(1000)]) == theirs.normal(
        0.5, 3.0, 1000).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 2**32 - 1, 2**32])
def test_a_million_integers(n):
    ours, theirs = Generator([n & 0xFFFFFFFF, 3]), np.random.default_rng([n & 0xFFFFFFFF, 3])
    count = N if n < 2**32 else N // 10
    assert [ours.integers(0, n) for _ in range(count)] == theirs.integers(0, n, count).tolist()
    # the 32-bit draws keep the high half of a word for the next one,
    # and a span of 1 draws nothing: the streams still agree after them
    assert ours.uniform() == theirs.uniform()


@pytest.mark.parametrize("restart", [0, 5, 0xC19, 0x5EED])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_interleaved_draws(seed, restart):
    ours, theirs = Generator([seed, restart]), np.random.default_rng([seed, restart])
    got, want = [], []
    for step in range(300):
        dim = 2 + step % 3
        got += ours.normal(0.0, 1.0, dim)
        want += theirs.normal(0.0, 1.0, dim).tolist()
        got += [ours.uniform(), ours.uniform(-1.0, 1.0), ours.uniform(0.0, 2.0 * math.pi)]
        want += [theirs.uniform(), theirs.uniform(-1.0, 1.0), theirs.uniform(0.0, 2.0 * math.pi)]
        for n in (1 + step % 40, 1, 7, 2**32 - 1):
            got.append(float(ours.integers(0, n)))
            want.append(float(theirs.integers(0, n)))
    assert bits(got) == bits(want)


def test_integer_and_list_seeds_hash_alike():
    for seed in (0, 51, 2**32, 2**70 + 5, [71, 3, 108], [1, 2, 3, 4, 5, 6]):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        assert bits(ours.uniform(size=10)) == theirs.uniform(size=10).tobytes()


def test_unported_calls_raise():
    rng = Generator(0)
    for low, high in ((0, 0), (5, 5), (3, 2), (0, 2**32 + 1), (0, 2**64)):
        with pytest.raises(ValueError, match="ported"):
            rng.integers(low, high)
    with pytest.raises(OverflowError):
        rng.uniform(-1e308, 1e308)
    with pytest.raises(ValueError):
        Generator(-1)
    with pytest.raises(TypeError):
        Generator(None)


class Planted:
    """numpy's generator and ours, both set to the PCG64 state whose next
    two 64-bit words are chosen."""

    def __init__(self):
        self.bitgen = np.random.PCG64(0)
        self.theirs = np.random.Generator(self.bitgen)
        self.ours = Generator(0)

    def normals(self, w1, w2):
        # a state below 2**58 outputs itself; the increment sets the
        # state after it, and a high word of 0 or 1 keeps it odd
        h = (w2 ^ w1 ^ 1) & 1
        inc = (((h << 64) | (w2 ^ h)) - w1 * MULT) & M128
        start = ((w1 - inc) * MULT_INV) & M128
        self.bitgen.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
        self.ours._state, self.ours._inc, self.ours._half = start, inc, None
        got, want = self.ours.normal(), self.theirs.normal()
        assert self.bitgen.state["state"]["state"] == self.ours._state
        return got, want


def word(idx, rabs, sign=0):
    return (rabs << 9) | (sign << 8) | idx


def test_planted_draws_confirm_every_table_entry():
    planted = Planted()
    for idx in range(256):
        # wi: rabs = 1 returns wi[idx] itself (through the wedge when ki is 0)
        got, want = planted.normals(word(idx, 1), 0)
        assert got == want == _WI[idx]
        # ki: the fast path ends at rabs = ki[idx] - 1 with the first word
        if _KI[idx]:
            got, want = planted.normals(word(idx, _KI[idx] - 1, 1), 0)
            assert bits([got]) == bits([want]) == bits([-(_KI[idx] - 1) * _WI[idx]])
        for sign in (0, 1):
            got, want = planted.normals(word(idx, _KI[idx], sign), 1 << 63)
            assert bits([got]) == bits([want])
        if idx == 0:
            continue
        # fi: at five points of the wedge, the second word's double flips
        # the wedge test exactly where the stored fi[idx - 1], fi[idx] say
        lo, hi = _FI[idx], _FI[idx - 1]
        k = _KI[idx]
        for rabs in {k + ((1 << 52) - 1 - k) * j // 4 for j in range(5)}:
            x = rabs * _WI[idx]
            e = math.exp(-0.5 * x * x)
            u, top = 0, 1 << 53
            while u < top:
                mid = (u + top) // 2
                if (hi - lo) * (mid / 2.0**53) + lo < e:
                    u = mid + 1
                else:
                    top = mid
            for u53, accepted in ((u - 1, True), (u, False)):
                if 0 <= u53 < 1 << 53:
                    got, want = planted.normals(word(idx, rabs), u53 << 11)
                    assert bits([got]) == bits([want])
                    assert (got == x) == accepted


def test_planted_tail_draws():
    # idx 0 beyond ki[0] samples the tail beyond r from the following
    # words, rejecting some, with the sign taken from bit 8 of rabs
    planted = Planted()
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        rabs = _KI[0] + int(rng.integers(0, (1 << 52) - _KI[0]))
        got, want = planted.normals(word(0, rabs), int(rng.integers(0, 2**63)) * 2)
        assert bits([got]) == bits([want])
        assert abs(got) >= 3.6541528853610087
        seen.add(got > 0)
    assert seen == {False, True}
