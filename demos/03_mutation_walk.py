"""Walk the mutation exchange graph of a singularity's toric NCCRs.

Removing a minimal element from the upper set swaps one rim element ``m``
for ``m + p``; on modules this is an iterated Iyama-Wemyss mutation whose
step counts (one less than the number of positive and of negative weights)
are recorded in a certificate.  The exchange graph of all classes is
connected, so every pair of toric NCCRs is linked by such moves.
"""

from toricnccr import (
    FGGroup,
    exchange_graph,
    grading_context,
    minimal_elements,
    mutate_nccr,
    nccr_classes,
    normalize,
    rim_of,
    translation_classes,
    validate,
)


def main():
    group = FGGroup(1, (3,))
    vecs = [[1, 0], [1, 0], [-1, 1], [-1, 2]]
    ws = validate(group, [group.from_vector(v) for v in vecs])
    ctx = grading_context(ws)

    graph = exchange_graph(ctx)
    # exchange_graph raises DisconnectedGraph if the classes fall apart
    print(f"exchange graph on {len(graph.nodes)} classes (connected)")
    for a, b, m in graph.edges:
        print(f"   class {a} --[remove {m}]--> class {b}")
    print()

    classes = translation_classes(ctx)
    V = nccr_classes(ctx)[0]
    print(f"start at class 0, summands {V}")
    for step in range(4):
        rim = rim_of(ctx, V)
        m = minimal_elements(ctx, rim)[-1]
        V, cert = mutate_nccr(ctx, V, m)
        canon = normalize(ctx, rim_of(ctx, V)).serialized()
        landed = next(
            i for i, c in enumerate(classes) if c.rim.serialized() == canon
        )
        print(f"step {step + 1}: removed orbit {cert.removed_orbit}; "
              f"{cert.plus_steps} right / {cert.minus_steps} left module mutations; "
              f"landed in class {landed}")
        print(f"         summands now {V}")


if __name__ == "__main__":
    main()
