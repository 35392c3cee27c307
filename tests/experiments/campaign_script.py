"""A small resumable sweep campaign, run as a subprocess by test_resume_determinism.py.

Usage::

    python tests/experiments/campaign_script.py CHECKPOINT_DIR OUT_CSV \
        {fresh|resume} PACE_SECONDS

Runs a 8-cell one-hop sweep (2 protocols x 2 loss rates x 2 seeds) through
the campaign executor with the given checkpoint directory, then writes the
aggregate table as CSV to OUT_CSV.  ``PACE_SECONDS`` throttles the cells so
the parent test has a reliable window to SIGKILL the process mid-campaign.
"""

import sys

from repro.experiments.executor import CampaignConfig
from repro.experiments.sweeps import sweep_one_hop
from repro.persist import atomic_write_text


def main() -> int:
    checkpoint_dir, out_path, mode, pace = sys.argv[1:5]
    campaign = CampaignConfig(
        checkpoint_dir=checkpoint_dir,
        resume=(mode == "resume"),
        pace_s=float(pace),
    )
    table = sweep_one_hop(
        protocols=("seluge", "lr-seluge"),
        loss_rates=(0.1, 0.3),
        receivers=(3,),
        image_size=2048,
        k=8,
        n=12,
        seeds=(1, 2),
        campaign=campaign,
    )
    atomic_write_text(out_path, table.to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
