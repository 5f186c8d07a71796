"""Compare the four training variants on one dataset.

full      masked reconstruction + proxy contrast (the shipped detector)
minus_c   reconstruction kept, contrastive module swapped for an MLP head
minus_r   masking/reconstruction disabled, proxy contrast kept
minus_cr  plain GCN + MLP head, no masking at all

Each run counts its mask samples and decoder passes from its own tapes
(`report.counter_delta`), which makes the ablation wiring observable:
minus_cr must execute zero of either.

The dataset is at desk scale (1,000 graphs, the acceptance suite's), so the
validation split holds 20 malicious graphs. On a smaller one a variant can
read a perfect validation F1 after an epoch or two and be kept untrained;
the best epoch is printed beside the stopping epoch to show where each
variant was selected.
"""
import time

from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset, split_dataset)
import graphsentry.training as T

config = SyntheticConfig(
    n_graphs=1000, benign_node_range=(8, 14), motif_node_count=5,
    motif_feature_signature="110010101010", malicious_fraction=0.1,
    background_edge_prob=0.15, rng_seed=42, schema=FeatureSchema(8, 4))
graphs = generate_synthetic_dataset(config)
split = split_dataset(graphs, (0.7, 0.2, 0.1), class_ratio=(9, 1), rng_seed=0)
by_id = {g.graph_id: g for g in graphs}
parts = {name: [by_id[i] for i in getattr(split, name)]
         for name in ("train", "validation", "test")}

print("variant    test_f1  best_epoch  stop_epoch  seconds  mask_samples  decoder_passes")
for variant in T.VARIANTS:
    tcfg = T.TrainConfig(gamma=0.5, learning_rate=0.01, layers=2, hidden=32,
                         max_epochs=100, early_stop_patience=10, batch_size=32,
                         rng_seed=0, variant=variant)
    tic = time.perf_counter()
    params, report = T.train(parts["train"], parts["validation"], tcfg)
    elapsed = time.perf_counter() - tic
    f1 = T.evaluate(params, parts["test"]).f1
    print(f"{variant:9}  {f1:7.4f}  {report.best_epoch:10d}  {report.stopping_epoch:10d}  "
          f"{elapsed:7.1f}  "
          f"{report.counter_delta['mask_samples']:12d}  "
          f"{report.counter_delta['decoder_passes']:14d}")
