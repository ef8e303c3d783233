"""Read numpy's normal ziggurat tables out through its public API.

``ballcover._rng`` draws normals with numpy's 256-layer ziggurat, whose
tables ``wi`` (layer widths over 2**52), ``ki`` (the fast-accept bounds)
and ``fi`` (the density at each layer edge) are compiled into numpy and
do not follow from the Marsaglia-Tsang recursion in double precision.
This script recovers them from the draws alone: it sets a PCG64 state
whose next 64-bit output is a chosen word, so one ``standard_normal``
call runs with a chosen layer ``idx``, sign and 52-bit ``rabs``.

* ``wi[idx]`` is the value returned for ``rabs = 1``;
* ``ki[idx]`` is the least ``rabs`` for which a second word is drawn,
  found by bisection;
* ``fi`` comes from the wedge test ``(fi[idx-1] - fi[idx]) * u + fi[idx]
  < exp(-x*x/2)``: the second word is chosen too (through the stream
  increment), the least rejecting ``u`` is bisected at five ``rabs``,
  and the one pair of doubles near the fitted line that reproduces all
  five thresholds is kept; neighbouring layers must agree on the
  ``fi`` entry they share.

As a cross-check the three tables are looked up, in the order fi, wi,
ki, in the bytes of numpy's compiled generator.  Run it with numpy
installed; it rewrites the generated block of ``src/ballcover/_rng.py``:

    python scripts/ziggurat_tables.py
"""

import glob
import math
import os
import struct
import sys

import numpy as np

M128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)
T52, T53 = 1 << 52, 1 << 53
MODULE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "src", "ballcover", "_rng.py")
BEGIN = "# --- generated by scripts/ziggurat_tables.py: do not edit ---\n"
END = "# --- end of generated tables ---\n"

bitgen = np.random.PCG64(0)
gen = np.random.Generator(bitgen)


def draw(idx, rabs, u53=0):
    """``standard_normal()`` after a first word (``idx``, sign 0, ``rabs``)
    and a second word whose double is ``u53 * 2**-53``, and the number of
    64-bit words it drew."""
    w1 = (rabs << 9) | idx
    w2 = u53 << 11
    # a state below 2**58 outputs itself, and a high word of 0 or 1
    # keeps the increment odd
    h = (w2 ^ w1 ^ 1) & 1
    s2 = (h << 64) | (w2 ^ h)
    inc = (s2 - w1 * MULT) & M128
    start = ((w1 - inc) * MULT_INV) & M128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    x = gen.standard_normal()
    end, s, n = bitgen.state["state"]["state"], start, 0
    while s != end:
        s, n = (s * MULT + inc) & M128, n + 1
    return x, n


def least(lo, hi, pred):
    """The least value in [lo, hi) where ``pred`` holds, else ``hi``."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def near(v, k):
    out, lo, hi = [v], v, v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def read_tables():
    wi = [draw(idx, 1)[0] for idx in range(256)]
    ki = [least(0, T52, lambda r, i=idx: draw(i, r)[1] > 1) for idx in range(256)]
    fi = [None] * 256
    for idx in range(1, 256):
        k = ki[idx]
        probes = []
        for r in sorted({k + (T52 - 1 - k) * j // 4 for j in range(5)}):
            x = r * wi[idx]
            e = math.exp(-0.5 * x * x)
            probes.append((e, least(0, T53, lambda u: draw(idx, r, u)[1] > 2)))
        finite = [(e, u / T53) for e, u in probes if u < T53]
        (e1, u1), (e2, u2) = finite[0], finite[-1]
        slope = (e1 - e2) / (u1 - u2)
        a0 = e2 - slope * u2

        def fits(a, b):
            return all(least(0, T53, lambda u: not (b - a) * (u / T53) + a < e) == got
                       for e, got in probes)

        pairs = [(a, b) for a in near(a0, 24) for b in near(a0 + slope, 24) if fits(a, b)]
        if len(pairs) != 1:
            sys.exit(f"layer {idx}: {len(pairs)} (fi[idx], fi[idx-1]) pairs fit the draws")
        (a, b), = pairs
        if fi[idx - 1] not in (None, b):
            sys.exit(f"layers {idx - 1} and {idx} disagree on fi[{idx - 1}]")
        fi[idx - 1], fi[idx] = b, a
    return wi, ki, fi


def cross_check(wi, ki, fi):
    blob = struct.pack("<256d", *fi) + struct.pack("<256d", *wi) + struct.pack("<256Q", *ki)
    pattern = os.path.join(os.path.dirname(np.random.__file__), "_generator*")
    found = any(blob in open(path, "rb").read() for path in glob.glob(pattern))
    print("tables found in numpy's compiled generator:", found)


def block(wi, ki, fi):
    def rows(name, items, per_line):
        lines = [f"_{name} = ("]
        for i in range(0, 256, per_line):
            lines.append("    " + " ".join(f"{v}," for v in items[i:i + per_line]))
        return lines + [")"]

    hexes = [f"0x{k:013X}" for k in ki]
    lines = rows("WI", [repr(v) for v in wi], 4) + rows("KI", hexes, 5)
    lines += rows("FI", [repr(v) for v in fi], 4)
    return BEGIN + "\n".join(lines) + "\n" + END


def main():
    wi, ki, fi = read_tables()
    cross_check(wi, ki, fi)
    with open(MODULE, encoding="utf-8") as f:
        text = f.read()
    head, rest = text.split(BEGIN)
    _, tail = rest.split(END)
    with open(MODULE, "w", encoding="utf-8") as f:
        f.write(head + block(wi, ki, fi) + tail)
    print(f"numpy {np.__version__}: wrote the tables into {os.path.normpath(MODULE)}")


if __name__ == "__main__":
    main()
