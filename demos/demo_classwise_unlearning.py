"""Walk through class-wise unlearning on synthetic blobs.

Generates a 3-class Gaussian blob dataset, trains a logistic model, removes
one class with each unlearning method, and prints the full metric bundle
(UA / MIA / RA / TA / Sum / Avg.Gap) against the retrain-from-scratch
reference.

Run with:  python3 demos/demo_classwise_unlearning.py
"""

from unlearn_forge import data, metrics, models, unlearn
from unlearn_forge.models import TrainConfig
from unlearn_forge.numcore import rng_stream
from unlearn_forge.smoothing import SmoothingPolicy
from unlearn_forge.unlearn import UnlearnConfig

K, per_class, d = 3, 100, 5

# --- data and the original model ------------------------------------------
train = data.gen_blobs(K, per_class, d, spread=1.0, subgroups_per_class=2,
                       rng=rng_stream(0, 10))
test = data.gen_blobs(K, 50, d, spread=1.0, subgroups_per_class=2,
                      rng=rng_stream(0, 11))
split, test_adj = data.split_classwise(train, cls=0, test=test)
retain = train.subset(split.retain_idx)
forget = train.subset(split.forget_idx)

train_cfg = TrainConfig(epochs=60, batch_size=32, lr=0.1, seed=0)
original, losses = models.sgd_train(models.init_model("logistic", d, K),
                                    train.X, train.y, train_cfg)
print(f"original model: train loss {losses[-1]:.4f}, "
      f"RA {metrics.accuracy(original, retain):.1f}, "
      f"TA {metrics.accuracy(original, test_adj):.1f}, "
      f"UA {metrics.ua(original, forget):.1f}")

# --- every unlearning method against the retrain reference ----------------
policy = SmoothingPolicy(mode="adaptive", beta=0.9)
reports = {}
for method in unlearn.METHODS:
    # retrain reruns the original training schedule
    epochs, lr = (train_cfg.epochs, train_cfg.lr) if method == "retrain" else (10, 0.01)
    cfg = UnlearnConfig(method=method, epochs=epochs, lr=lr, batch_size=32,
                        seed=0, smoothing=policy)
    res = unlearn.run_method(original, train, split, cfg)
    reports[method] = metrics.evaluate(res.model, forget, retain, test_adj)

ref = reports["retrain"]
print(f"\n{'method':<14}{'UA':>8}{'MIA':>8}{'RA':>8}{'TA':>8}{'Sum':>9}{'AvgGap':>8}")
for method, rep in reports.items():
    gap = metrics.avg_gap(rep, ref) if method != "retrain" else 0.0
    print(f"{method:<14}{rep.ua:8.2f}{rep.mia:8.2f}{rep.ra:8.2f}"
          f"{rep.ta:8.2f}{rep.sum:9.2f}{gap:8.2f}")

# --- the Streisand check: do forget predictions stand out? ----------------
s = metrics.streisand(original, forget, test_adj)
print(f"\noriginal model forget-vs-test prediction TV distance: "
      f"{s['tv_distance']:.3f}")
best = min((m for m in reports if m != "retrain"),
           key=lambda m: metrics.avg_gap(reports[m], ref))
print(f"closest to retrain: {best} "
      f"(avg gap {metrics.avg_gap(reports[best], ref):.2f})")
