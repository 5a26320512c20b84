"""Verify the classification machinery against its independent oracles.

Three layers of cross-checking, all exact:
  * the order-theoretic Cohen-Macaulay test against a brute-force search
    for sign-pattern witness vectors;
  * the homotopy-type classification of every nonneg mask against the
    boundary ranks of its face complex, over the rationals;
  * the order/action axioms of the graded poset, certified exactly by the
    least-code table of its monoid.
"""

from toricnccr import (
    FGGroup,
    betti_numbers,
    check_axioms,
    classify_sign_vector,
    crosscheck_mcm,
    grading_context,
    is_mcm,
    local_cohomology_window,
    sign_pattern_witness,
    support_complex,
    validate,
)


def main():
    group = FGGroup(1, ())
    ws = validate(group, [group.from_vector([v]) for v in (2, 3, -2, -3)])
    ctx = grading_context(ws)

    mcm = [g for g in range(-10, 11) if is_mcm(ctx, group.element(g))]
    print(f"maximal Cohen-Macaulay degrees in [-10, 10]: {mcm}")

    g = group.element(7)
    print(f"degree 7 witness vector: {sign_pattern_witness(ws, g, 12)}")
    degrees = [group.element(f) for f in range(-20, 21)]
    print("crosscheck:", crosscheck_mcm(ctx, degrees, window=24).summary())
    print()

    # both sides read only the signs, so the 16 nonneg masks, as vectors with
    # 0 (nonneg) and -1 (negative), certify every sign vector of the system;
    # bit i of a mask is weight i
    print("nonneg mask  sign vector        homotopy type   nonzero reduced Betti numbers")
    agree = 0
    for mask in range(1 << len(ws.weights)):
        a = tuple(0 if mask >> i & 1 else -1 for i in range(len(ws.weights)))
        kind = classify_sign_vector(ws, a)
        betti = {k: v for k, v in betti_numbers(support_complex(ws, a)).items() if v}
        agree += betti == kind.betti_profile()
        print(f"{mask:04b}{'':8} {str(a):18} {str(kind):15} {betti}")
    print(f"homology agrees with the classification on {agree}/{1 << len(ws.weights)} masks")
    print()

    table = local_cohomology_window(ws, group.element(7), 4)
    print(f"windowed local cohomology contributions for degree 7: {table}")
    cert = check_axioms(ctx)
    print(f"axiom certificate: p = {cert.period} is strictly positive (A1), the order is")
    print("translation invariant by definition (A2), and x + n*p >= y once the free part")
    print(f"of x - y + n*p reaches the conductor {cert.conductor} (A3)")


if __name__ == "__main__":
    main()
