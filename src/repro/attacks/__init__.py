"""The composable adversary engine (DESIGN.md §12).

Declarative :class:`AttackSpec` records (JSON-loadable with
:func:`load_attack_plan`, like :class:`repro.faults.plan.FaultPlan`) name
attackers from :data:`ATTACK_KINDS`; an :class:`AttackEngine` deploys them
into any scenario's topology and halts them the moment every victim
completes.
"""

from repro.attacks.engine import AttackEngine
from repro.attacks.model import AttackModel
from repro.attacks.models import (
    ATTACK_KINDS,
    BogusDataInjector,
    ControlForger,
    DenialOfReceiptAttacker,
    SignatureFlooder,
)
from repro.attacks.plan import AttackSpec, load_attack_plan

__all__ = [
    "ATTACK_KINDS",
    "AttackEngine",
    "AttackModel",
    "AttackSpec",
    "BogusDataInjector",
    "ControlForger",
    "DenialOfReceiptAttacker",
    "SignatureFlooder",
    "load_attack_plan",
]
