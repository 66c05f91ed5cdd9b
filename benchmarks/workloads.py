"""The benchmark's seeded workloads.

Each workload turns a seed into a corpus, a holdout split, a network and
a training config. Generation happens before any clock starts. Sizes
take a ``scale`` in (0, 1] so the self-test can run the same code paths
on tiny corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

from gkconv import experiment
from gkconv.data import (MotifSpec, generate_motif_dataset,
                         generate_triangle_cycle_dataset, split_holdout)
from gkconv.rng import stream


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str        # "ring6" or "tricycle"
    corpus_size: int
    layers: int
    radius: int
    kernel: str
    epochs: int        # fixed, so a run's trajectory depends on the seed only
    rounds: int        # fewest rounds per run (set-up and cold samples)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ring6_l1",
        why="paper's ring-6 motif recovery, 1 layer: cold WL row cache at "
            "set-up, then per-batch CSR assembly, head and DRD",
        corpus="ring6", corpus_size=400, layers=1, radius=3,
        kernel="wl_subtree", epochs=8, rounds=3),
    Workload(
        name="ring6_l2",
        why="ring-6 corpus (160 graphs), 2 layers: every batch re-refines "
            "relabeled layer-1 egos (WL refinement dominates) and fits and "
            "assigns the k-means junction",
        corpus="ring6", corpus_size=160, layers=2, radius=3,
        kernel="wl_subtree", epochs=3, rounds=4),
    Workload(
        name="tricycle_g3",
        why="triangle-vs-cycle corpus with the graphlet3 kernel: WL and "
            "CSR bypassed, the head's per-graph loops dominate",
        corpus="tricycle", corpus_size=2000, layers=1, radius=1,
        kernel="graphlet3", epochs=8, rounds=3),
)}


def make_inputs(w: Workload, seed: int, scale: float = 1.0, epochs=None):
    """(dataset, split, network, train config) for one seed."""
    count = max(20, 2 * round(w.corpus_size * scale / 2))
    rng = stream(seed, "synth")
    if w.corpus == "ring6":
        ds = generate_motif_dataset(MotifSpec("ring", 6), count, rng)
    else:
        ds = generate_triangle_cycle_dataset(count, rng)
    split = split_holdout(ds, stream(seed, "splits"))
    net = experiment.build_network(
        ds.dictionary.size, num_masks=8, mask_nodes=6, radius=w.radius,
        num_layers=w.layers, kernel_kind=w.kernel,
        quantizer_k=4 if w.layers > 1 else 0)
    n_epochs = w.epochs if epochs is None else epochs
    cfg = experiment.TrainConfig(epochs=n_epochs, patience=n_epochs + 1,
                                 batch_size=32, seed=seed)
    return ds, split, net, cfg
