#!/usr/bin/env python3
"""Perfect-base check: the double of the alternating group A5.

Enumerates the double over the split copy of the base (the coset count is
the order of the letter-difference kernel, far below the group order),
confirms that the triple-coordinate map is onto the full cube, and verifies
that its kernel W is central.  It runs in about 0.6 s on a 2-core Intel
Xeon host under Python 3.11, most of it the split-copy enumeration.

    python scripts/perfect_base_run.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from weakcomm.presentations import parse_presentation
from weakcomm.sidki import perfect_base_report


def main() -> int:
    pres = parse_presentation("< a, b | a^2, b^3, (a*b)^5 >")
    t0 = time.perf_counter()
    rep = perfect_base_report(pres)
    dt = time.perf_counter() - t0
    for key, value in rep.items():
        print(f"{key}: {value}")
    print(f"elapsed: {dt:.2f}s")
    ok = rep["im_rho_is_full_triple_product"] and rep["W_central"]
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
