"""A protocol x loss-rate sweep of one-hop cells run as one campaign."""

import itertools

from repro.experiments.executor import execute_scenarios, task_key
from repro.experiments.figures import mean_metrics
from repro.experiments.scenarios import OneHopScenario, run_scenario


def test_one_hop_sweep_structure():
    protocols = ("seluge", "lr-seluge")
    loss_rates = (0.1, 0.3)
    cells = {
        (protocol, p): OneHopScenario(protocol=protocol, loss_rate=p,
                                      receivers=3, image_size=2048, k=8,
                                      n=12, seed=1)
        for protocol, p in itertools.product(protocols, loss_rates)
    }
    results = execute_scenarios("one_hop", run_scenario, list(cells.values()))
    assert len(results) == 4  # 2 protocols x 2 loss rates x 1 N
    by_key = {combo: results[task_key("one_hop", scenario)]
              for combo, scenario in cells.items()}
    assert all(run.completed for run in by_key.values())
    # Higher loss means higher cost within each protocol.
    for protocol in protocols:
        low = mean_metrics([by_key[(protocol, 0.1)]])["data_pkts"]
        high = mean_metrics([by_key[(protocol, 0.3)]])["data_pkts"]
        assert high > low
