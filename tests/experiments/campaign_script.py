"""A small resumable campaign, run as a subprocess by test_resume_determinism.py.

Usage::

    python tests/experiments/campaign_script.py CHECKPOINT_DIR OUT_JSON \
        {fresh|resume} PACE_SECONDS

Runs 8 one-hop cells (seluge/lr-seluge x p 0.1/0.3 x seeds 1-2; 3
receivers, 2 KiB image, k=8, n=12) through the campaign executor with the
given checkpoint directory, then writes ``{task key: result}`` as sorted
JSON to OUT_JSON.  ``PACE_SECONDS`` is slept before each cell so the parent
test has a reliable window to SIGKILL the process mid-campaign.
"""

import json
import sys
import time
from functools import partial

from repro.experiments.executor import CampaignConfig, execute_scenarios
from repro.experiments.scenarios import OneHopScenario, run_one_hop
from repro.persist import atomic_write_text


def paced_one_hop(pace_s, scenario):
    time.sleep(pace_s)
    return run_one_hop(scenario)


def main() -> int:
    checkpoint_dir, out_path, mode, pace = sys.argv[1:5]
    scenarios = [
        OneHopScenario(protocol=protocol, loss_rate=p, receivers=3,
                       image_size=2048, k=8, n=12, seed=seed)
        for protocol in ("seluge", "lr-seluge")
        for p in (0.1, 0.3)
        for seed in (1, 2)
    ]
    results = execute_scenarios(
        "one_hop", partial(paced_one_hop, float(pace)), scenarios,
        CampaignConfig(checkpoint_dir=checkpoint_dir, resume=(mode == "resume")),
    )
    body = {key: result.to_jsonable() for key, result in results.items()}
    atomic_write_text(out_path, json.dumps(body, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
