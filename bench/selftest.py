#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 bench/selftest.py

For four ops it runs the op once, shows that the genuine output passes
its checks, then feeds the same checks a copy with one corruption and
shows that they reject it and that the op counts as failed:

* a flipped entry in a repaired generator (repair),
* a round-trip error raised above its bound (towers),
* k = 561 copies of M_2 in M_4 (census),
* c - 4 from the dimension bound (census).

Exits 0 when every corruption is caught. Takes about 15 seconds.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import run as R
import workloads as W


def flip_generator_entry(rec):
    x2 = rec["pair"][0]
    x2[0][0] = 1 - x2[0][0] if x2[0][0] in (0, 1) else 0


def raise_trip_error(rec):
    t, bound, errors = rec["trips"][-1]
    idx, _ = errors[0]
    errors[0] = (idx, bound + Fraction(1, 8))


def k_plus_one(rec):
    rec["k"] = 561


def c_minus_step(rec):
    rec["c"] -= 4


def pick(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def main() -> int:
    rm = R.fresh_import()
    os.makedirs(R.OUT, exist_ok=True)
    census = W.census_cycle(W.Child(R.ROOT, R.OUT), 0)
    cases = [
        (pick(W.repair_cycle(rm, 0), "repair q3 n2 amb60"), flip_generator_entry,
         "flipped entry in a repaired generator"),
        (pick(W.towers_cycle(rm, 0), "backforth q3 factorial"), raise_trip_error,
         "round-trip error above its bound"),
        (pick(census, "copies brute_force"), k_plus_one, "k = 561"),
        (pick(census, "ramsey-bound"), c_minus_step, "c - 4"),
    ]
    caught = 0
    for op, corrupt, what in cases:
        out, err = R.run_op(op)
        genuine = R.Tally()
        passed = genuine.record(op, out, err)
        corrupted = R.Tally()
        rejected = not corrupted.record(op, out, err, corrupt=corrupt)
        ok = passed and rejected and corrupted.failed == 1 and corrupted.wrong == 1
        caught += ok
        detail = "; ".join(corrupted.problems[0][1]) if corrupted.problems else "nothing"
        print(f"{'ok  ' if ok else 'FAIL'} {op.label}: genuine "
              f"{'passes' if passed else 'FAILS ' + str(genuine.problems)}, {what} -> "
              f"failed {corrupted.failed}/{corrupted.attempted} ({detail})")
    print(f"{caught}/{len(cases)} corruptions caught")
    return 0 if caught == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
