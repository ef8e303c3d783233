"""Time the line cover in process at 10^4, 10^5 and 10^6 intervals.

For each size, one seeded line of each shape the ``line-1d`` benchmark
uses is drawn, at the density of the benchmark's scenes:

* ``bounded``: centers uniform on [0, 4n/3], radii log-uniform on
  [0.5, 50] (the benchmark's 3*10^4 intervals span 4*10^4), a density
  ``2 * sum(r) / spread`` of about 16;
* ``scattered``: centers uniform on [0, 2000n/3], radii uniform on
  [1, 10] (its 1.5*10^4 intervals span 10^7), a density of about 0.017.

``besicovitch_cover_1d`` picks its construction from that density (the
one the shape is named after), and covers every center twice: given the
family as columns (``BallFamily.from_columns``, the form a parsed scene
has) and as a family of ``Ball`` objects.  Building the family is not
timed.  One JSON object goes to standard output:

    PYTHONPATH=src python scripts/oned_scale.py [--sizes 10000,100000] [--seed 601]
"""

import argparse
import json
import math
import platform
import random
import time

from ballcover import Ball, BallFamily, Point, Space, besicovitch_cover_1d

LINE = Space.euclidean(1)


def draw(shape: str, n: int, seed: int):
    rng = random.Random(f"{seed}-{shape}-{n}")
    if shape == "bounded":
        lo, hi = math.log(0.5), math.log(50.0)
        return [(rng.uniform(0.0, 4.0 * n / 3.0), math.exp(rng.uniform(lo, hi)))
                for _ in range(n)]
    return [(rng.uniform(0.0, 2000.0 * n / 3.0), rng.uniform(1.0, 10.0)) for _ in range(n)]


def family(form: str, pairs) -> BallFamily:
    if form == "columns":
        return BallFamily.from_columns(LINE, [(c,) for c, _r in pairs], [r for _c, r in pairs])
    return BallFamily(LINE, [Ball(Point((c,)), r) for c, r in pairs])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,100000,1000000")
    ap.add_argument("--seed", type=int, default=601)
    args = ap.parse_args()
    rows = []
    for n in map(int, args.sizes.split(",")):
        for shape in ("bounded", "scattered"):
            pairs = draw(shape, n, args.seed)
            centers = [c for c, _r in pairs]
            for form in ("columns", "balls"):
                fam = family(form, pairs)
                start = time.perf_counter()
                result = besicovitch_cover_1d(fam, centers)
                elapsed = time.perf_counter() - start
                rows.append({
                    "intervals": n,
                    "shape": shape,
                    "form": form,
                    "s": round(elapsed, 4),
                    "intervals_per_s": round(n / elapsed),
                    "kept": sum(a >= 0 for a in result.assignment),
                })
                del fam, result
    print(json.dumps({
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
