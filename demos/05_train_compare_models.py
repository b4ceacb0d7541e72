"""Train the star model against both baselines on one synthetic world.

The star model should win on weighted AUC (it can represent per-domain label
functions that the single-stack baseline cannot) and sit closer to 1.0 on
per-domain calibration.  Takes a minute or two.
"""

from starctr.config import ExperimentConfig
from starctr.datagen import default_gen_config, generate_examples
from starctr.train import evaluate_model, train_model


def main():
    seed = 0
    train = generate_examples(
        default_gen_config(num_domains=5, seed=seed, n_examples=200_000)
    ).examples
    test = generate_examples(
        default_gen_config(num_domains=5, seed=seed, n_examples=50_000,
                           sample_seed=seed + 7700)
    ).examples

    cells = [
        ("star / pn / aux",
         dict(variant="star", normalizer="pn", aux_enabled=True)),
        ("shared bottom / bn / aux",
         dict(variant="shared_bottom", normalizer="bn", aux_enabled=True)),
        ("base / bn / aux",
         dict(variant="base", normalizer="bn", aux_enabled=True)),
    ]
    print(f"{'model':28s} {'overall_auc':>12s} {'weighted_auc':>13s} "
          f"{'pcoc_std':>9s}")
    for name, kw in cells:
        config = ExperimentConfig(seed=seed, **kw)
        result = train_model(config, train)
        report = evaluate_model(result.model, test)
        print(f"{name:28s} {report.overall_auc:12.4f} "
              f"{report.weighted_auc:13.4f} {report.pcoc_std:9.4f}")

    print("\nper-domain PCOC of the last model trained (base):")
    for p, v in report.per_domain_pcoc.items():
        print(f"  domain {p}: {v:.3f}")


if __name__ == "__main__":
    main()
