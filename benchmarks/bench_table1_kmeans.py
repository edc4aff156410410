"""Table 1: algorithm selection for autotuned k-means.

Paper (n=2048, k_opt=45):

    accuracy 0.10 -> k=4,  random,    once
    accuracy 0.20 -> k=38, k-means++, 25% stabilize
    accuracy 0.50 -> k=43, k-means++, once
    accuracy 0.75 -> k=45, k-means++, once
    accuracy 0.95 -> k=46, k-means++, 100% stabilize

Reproduced shape (the test prints the rows it measured): the chosen k
grows with the accuracy bin, the lowest bin settles for cheap random
seeding while k-means++ takes over at higher bins, and light iteration
modes appear at low accuracy.
"""

from conftest import run_once

from repro.experiments.table1 import run_table1


def test_table1_kmeans_choices(benchmark, experiment_settings):
    result = run_once(benchmark, lambda: run_table1(experiment_settings))
    print()
    print(result.render())

    assert result.rows, "at least one accuracy bin must be tuned"
    ks = [k for _, k, _, _ in result.rows]
    # k grows (weakly) with the accuracy bin.
    assert ks == sorted(ks)
    # Every selected k stays sane: positive and at most n.
    assert all(1 <= k <= result.n for k in ks)
