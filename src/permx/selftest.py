"""Built-in acceptance run.

Thirteen deterministic criteria cover counting, containment, extremal
search, inequality certification, schedule certification, and output
stability.  A run takes the criteria in id order, prints one progress
line per criterion on the diagnostic stream and returns a JSON-ready
report.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time

from .avoidance import count_avoiders, verify_jv_inclusion
from .bounds import (
    BoundParams,
    build_schedule,
    certify_schedule,
    fox_rhs,
    marcus_tardos_bound,
    theorem12_exponent,
    theorem24_alpha,
)
from .core import (
    Permutation,
    PermutationMatrix,
    blockable_decompositions,
    contains,
    contains_values,
    inflate,
    parse_permutation,
    to_matrix,
)
from .errors import PreconditionViolated
from .extremal import (
    check_lemma21,
    check_lemma22,
    exfn_enumerate,
    exfn_exact,
    fpts_exact,
    gpts_exact,
)
from .record import Record

I2 = PermutationMatrix.identity(2)


def _criterion_catalan():
    for pat in itertools.permutations((1, 2, 3)):
        p = Permutation(pat)
        for n in range(0, 11):
            want = math.comb(2 * n, n) // (n + 1)
            got = count_avoiders(p, n)
            if got != want:
                return False, f"pattern {p}, n={n}: {got} != {want}"
    return True, "6 patterns, n <= 10, all counts Catalan"


def _criterion_containment():
    host = parse_permutation("42153")
    if not contains(host, parse_permutation("312")):
        return False, "42153 should contain 312"
    if contains(host, parse_permutation("123")):
        return False, "42153 should avoid 123"
    return True, "42153 contains 312 and avoids 123"


def _criterion_naive_equivalence():
    patterns = [
        Permutation(p)
        for k in range(1, 5)
        for p in itertools.permutations(range(1, k + 1))
    ]
    pairs = 0
    for n in range(0, 8):
        hosts = list(itertools.permutations(range(1, n + 1)))
        for p in patterns:
            naive = sum(1 for h in hosts if not contains_values(h, p.entries))
            got = count_avoiders(p, n)
            if got != naive:
                return False, f"pattern {p}, n={n}: {got} != naive {naive}"
            pairs += 1
    return True, f"{pairs} pattern/length pairs match the factorial filter"


def _criterion_extremal_oracle():
    for n in (2, 3, 4):
        got = exfn_exact(I2, n).value
        if got != 2 * n - 1:
            return False, f"n={n}: {got} != {2 * n - 1}"
    for n in (1, 2, 3, 4):
        full = exfn_enumerate(I2, n)
        if exfn_exact(I2, n).value != full:
            return False, f"n={n}: search disagrees with full enumeration {full}"
    return True, "2n-1 law and full enumeration agree for n <= 4"


def _criterion_universal_bound():
    cap = marcus_tardos_bound(2)
    for n in (1, 2, 3, 4):
        value = exfn_exact(I2, n).value
        if value > cap * n:
            return False, f"n={n}: {value} exceeds {cap}*{n}"
    return True, f"all exact values within {cap}n"


def _criterion_width_weight():
    count = 0
    for t in range(3, 6):
        for s in range(3, t + 1):
            rep = check_lemma21(I2, 1, t, s)
            if not rep.holds:
                return False, f"(t={t},s={s}): lhs {rep.lhs_value} > rhs {rep.rhs_bound}"
            count += 1
    return True, f"{count} (t,s) pairs certified exactly"


def _criterion_shrink_inequality():
    P = to_matrix(parse_permutation("12"))
    checked = 0
    for t in range(2, 6):
        for s in range(2, t + 1):
            for x in (0.6, 0.75, 0.9):
                for y in (0.3, 0.4, 0.5):
                    try:
                        rep = check_lemma22(P, 1, 2, t, s, x, y)
                    except PreconditionViolated:
                        continue
                    if not rep.holds:
                        return False, f"(t={t},s={s},x={x},y={y}) violated"
                    checked += 1
    if checked < 5:
        return False, f"only {checked} admissible grid points"
    return True, f"{checked} admissible (t,s,x,y) points certified"


def _criterion_product_host():
    table = {m: exfn_exact(I2, m).value for m in (1, 2, 3)}
    for t, s, n in ((2, 2, 2), (3, 3, 2)):
        f = fpts_exact(I2, t, s).value
        g = gpts_exact(I2, t, s).value
        rhs = fox_rhs(table, t, s, f, g, n)
        lhs = exfn_exact(I2, t * n).value
        if lhs > rhs:
            return False, f"(t={t},s={s},n={n}): {lhs} > {rhs}"
    return True, "exact values stay under the combination bound at both points"


def _criterion_schedule_certification():
    failures = []
    for a in (1, 2):
        for c in (2, 3):
            params = BoundParams(10**6, a, c)
            report = certify_schedule(build_schedule(params))
            bad = sorted(ch.name for ch in report.checks if not ch.holds)
            if bad:
                failures.append(f"(a={a},c={c}): {', '.join(bad)}")
    if failures:
        return False, "; ".join(failures)
    return True, "all constraints hold at k=10^6 over the four-point grid"


def _criterion_exponent_identity():
    rng = random.Random(20260823)
    for _ in range(25):
        a = rng.uniform(0.3, 4.0)
        c = rng.randrange(2, 7)
        alpha = theorem24_alpha(a, c)
        doubled = theorem12_exponent(a, c)
        if abs(doubled - 2 * alpha) > 1e-12 * max(1.0, abs(doubled)):
            return False, f"identity fails at a={a}, c={c}"
    ref = theorem24_alpha(1, 2)
    if abs(ref - 122.7226) > 1e-3:
        return False, f"reference value off: {ref}"
    return True, f"25 seeded points within 1e-12; reference {ref:.4f}"


def _criterion_merge_inclusion():
    parts = [parse_permutation(t) for t in ("1", "12", "21")]
    total = 0
    for pa, pb, pc in itertools.product(parts, repeat=3):
        for n in range(1, 8):
            rep = verify_jv_inclusion(pa, pb, pc, n)
            if not rep.holds:
                return False, (
                    f"counterexample {rep.counterexample} at "
                    f"parts ({pa},{pb},{pc}), n={n}"
                )
            total += rep.checked
    return True, f"27 part triples, n <= 7, {total} avoiders all merged"


def _criterion_inflation_roundtrip():
    skeleton = parse_permutation("2413")
    blocks = [parse_permutation(b) for b in ("1", "132", "321", "12")]
    inflated = inflate(skeleton, blocks)
    if str(inflated) != "479832156":
        return False, f"inflation gave {inflated}"
    decomps = blockable_decompositions(inflated, 4)
    target = (skeleton, tuple(blocks))
    if not any((d.skeleton, d.blocks) == target for d in decomps):
        return False, "decomposition search did not recover the block structure"
    return True, f"479832156 recovered among {len(decomps)} decompositions at c=4"


def _criterion_output_stability():
    from .cli import run

    argvs = [
        ["count-av", "--pattern", "123", "--n", "8"],
        ["bounds", "certify", "--k", "1e6", "--a", "1", "--c", "2"],
        ["bounds", "schedule", "--k", "1e6", "--a", "2", "--c", "3"],
        ["sw-estimate", "--pattern", "132", "--n-max", "6"],
        ["fpts", "--pattern", "12", "--t", "5", "--s", "2", "--n-cap", "16"],
        ["decompose", "--pattern", "479832156", "--c", "4"],
    ]

    def snapshot() -> bytes:
        return "".join(run([*argv, "--format", "json"])[1] for argv in argvs).encode()

    first, second = snapshot(), snapshot()
    if first != second:
        return False, "report bytes differ between two identical runs"
    return True, f"{len(argvs)} commands, {len(first)} report bytes stable"


class Criterion(Record):
    id: int
    description: str
    fn: object


CRITERIA = (
    Criterion(1, "3-pattern avoidance counts are Catalan for n <= 10", _criterion_catalan),
    Criterion(2, "containment ground truth on the 42153 host", _criterion_containment),
    Criterion(3, "counts match the factorial filter for |pattern| <= 4, n <= 7",
              _criterion_naive_equivalence),
    Criterion(4, "identity-pair extremal values: 2n-1 law vs full enumeration",
              _criterion_extremal_oracle),
    Criterion(5, "exact extremal values stay under the quartic universal bound",
              _criterion_universal_bound),
    Criterion(6, "width/weight inequality certified for 3 <= s <= t <= 5",
              _criterion_width_weight),
    Criterion(7, "blockable shrink inequality certified on the admissible grid, t <= 5",
              _criterion_shrink_inequality),
    Criterion(8, "product-host inequality spot checks with exact small tables",
              _criterion_product_host),
    Criterion(9, "schedule certification over (a,c) in {1,2}x{2,3} at k=10^6",
              _criterion_schedule_certification),
    Criterion(10, "doubled-exponent identity and reference value",
              _criterion_exponent_identity),
    Criterion(11, "merge inclusion verified for all part triples of size <= 2, n <= 7",
              _criterion_merge_inclusion),
    Criterion(12, "inflation round trip through 479832156",
              _criterion_inflation_roundtrip),
    Criterion(13, "repeated report generation is byte-identical",
              _criterion_output_stability),
)


def run_selftest() -> dict:
    """Run every criterion in id order and return the report payload.

    Progress lines carry wall times and go to stderr; the returned
    payload contains no timings so that repeated runs serialize
    identically.
    """
    results = []
    for crit in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = crit.fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(
            f"criterion {crit.id:2d} {status} ({elapsed:7.2f}s)  "
            f"{crit.description}: {detail}",
            file=sys.stderr,
        )
        results.append({
            "id": crit.id,
            "description": crit.description,
            "pass": ok,
            "detail": detail,
        })
    return {"criteria": results, "all_pass": all(r["pass"] for r in results)}
