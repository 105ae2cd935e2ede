#!/usr/bin/env python3
"""Tour of the channel model: specs on disk, encoders, and exact joint laws.

Loads a binary symmetric channel from ``channels/``, drives it with a
two-message repetition encoder for three uses, and walks the resulting
output tree through the law's node table: path masses, message
posteriors, and the entropy process that the bounds and the lemma checks
are built on.  Ends with a state channel to show that the same machinery
handles channels whose behaviour depends on an evolving hidden state.
"""

from pathlib import Path

from fbound import (
    StoppingRule,
    directed_mi_stopped,
    expected_stop_time,
    forward_joint,
    load_channel,
    repetition_encoder,
    two_state_flip_channel,
)
from fbound.info_measures import node_table

CHANNELS = Path(__file__).resolve().parents[1] / "channels"


def expected_entropy(law) -> list[float]:
    """E[H(W | Y^t)] for t = 0..N: each level's node masses times the
    node table's entropy column, summed in node order."""
    table = node_table(law)
    out = [0.0] * (law.horizon + 1)
    for i, (p, h) in enumerate(zip(law.node_prob.tolist(), table.h.tolist())):
        out[len(table.history(i))] += p * h
    return out


def main() -> None:
    ch = load_channel(str(CHANNELS / "bsc01.json"))
    print(f"channel {ch.name}: x_size={ch.spec.x_size} y_size={ch.spec.y_size} "
          f"s_size={ch.spec.s_size} kernel={ch.kernel.variant}")
    for x in range(ch.spec.x_size):
        print(f"  P(y|x={x}) = {ch.spec.row(x, 0)}")

    # Two equiprobable messages, each repeating its bit for three uses.
    m, horizon = 2, 3
    policy = repetition_encoder(m, ch.spec.x_size, horizon)
    law = forward_joint(ch, policy, horizon)
    table = node_table(law)
    print(f"\njoint law: {m} messages, horizon {horizon}, "
          f"{table.leaf.size} output paths, total mass {law.total_mass():.12f}")

    # The node table holds one row per output history; its leaves are the
    # full output paths, after the histories of levels 0..N-1.
    print("\nheaviest output paths and their message posteriors:")
    first_leaf = table.prob.size
    heaviest = sorted(range(table.leaf.size), key=lambda k: -table.leaf_prob[k])
    for k in heaviest[:4]:
        i = first_leaf + k
        print(f"  y={table.history(i)}  P={table.leaf_prob[k]:.6f}  "
              f"P(W|y)={table.posterior[i].round(6)}  H(W|y)={table.h[i]:.6f} bits")

    # The posterior entropy process: one value per output node, decreasing
    # on average as observations accumulate.
    print("\nexpected posterior entropy by time:")
    for t, v in enumerate(expected_entropy(law)):
        print(f"  t={t}  E[H_t] = {v:.6f} bits")

    # Stop after two of the three uses: information and stopping time of a
    # stopped transcript, the basic quantities the converse bounds trade off.
    rule = StoppingRule.fixed(2, horizon, ch.spec.y_size)
    print(f"\nfixed stop at t=2: E[tau]={expected_stop_time(law, rule):.6f}, "
          f"directed information I(W -> Y^tau) = {directed_mi_stopped(law, rule):.6f} bits")

    # Same pipeline on a channel with a hidden flipping state.
    flip = two_state_flip_channel()
    law2 = forward_joint(flip, repetition_encoder(m, flip.spec.x_size, horizon), horizon)
    print(f"\nstate channel {flip.name}: kernel={flip.kernel.variant}, "
          f"mass {law2.total_mass():.12f}")
    for t, v in enumerate(expected_entropy(law2)):
        print(f"  t={t}  E[H_t] = {v:.6f} bits")


if __name__ == "__main__":
    main()
