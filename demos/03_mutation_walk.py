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
    mutate_nccr,
    nccr_classes,
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

    summands = nccr_classes(ctx)  # one summand set per node, in node order
    current = 0
    print(f"start at class 0, summands {summands[0]}")
    for step in range(4):
        # the last move out of the current class; its edge names the class it lands in
        _, landed, m = [edge for edge in graph.edges if edge[0] == current][-1]
        V, cert = mutate_nccr(ctx, summands[current], m)
        print(f"step {step + 1}: removed orbit {cert.removed_orbit}; "
              f"{cert.plus_steps} right / {cert.minus_steps} left module mutations; "
              f"landed in class {landed}")
        print(f"         summands now {V}")
        current = landed


if __name__ == "__main__":
    main()
