"""AttackSpec validation and normalisation; attack-plan JSON loading."""

import json

import pytest

from repro.attacks import AttackSpec, load_attack_plan
from repro.errors import ConfigError


def test_spec_defaults_and_kwargs():
    spec = AttackSpec(kind="bogus-data", params={"version": 3, "payload_size": 40})
    assert spec.start == 0.1 and spec.period == 0.5 and spec.stop is None
    # Mapping params normalise to a sorted tuple (hashable, canonical).
    assert spec.params == (("payload_size", 40), ("version", 3))
    assert spec.kwargs() == {"version": 3, "payload_size": 40}
    hash(spec)  # frozen specs embed in frozen scenario dataclasses


@pytest.mark.parametrize("bad", [
    dict(kind=""),
    dict(kind="bogus-data", start=-1.0),
    dict(kind="bogus-data", period=0.0),
    dict(kind="bogus-data", start=5.0, stop=5.0),
    dict(kind="bogus-data", reach=0.0),
    dict(kind="bogus-data", position=(1.0, 2.0, 3.0)),
])
def test_spec_validation(bad):
    with pytest.raises(ConfigError):
        AttackSpec(**bad)


def _write(tmp_path, text):
    path = tmp_path / "plan.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_plan_json_roundtrip(tmp_path):
    specs = (
        AttackSpec(kind="denial-of-receipt", start=0.5, period=0.25,
                   params={"victim": 2}),
        AttackSpec(kind="bogus-data", stop=300.0, position=(1.0, 2.0),
                   reach=6.0),
    )
    path = _write(tmp_path, json.dumps(
        {"attacks": [s.to_dict() for s in specs]}, indent=2))
    assert load_attack_plan(path) == specs


def test_plan_json_accepts_bare_list(tmp_path):
    specs = load_attack_plan(_write(tmp_path, '[{"kind": "control-forge"}]'))
    assert len(specs) == 1 and specs[0].kind == "control-forge"


@pytest.mark.parametrize("text", ["not json", '{"attacks": 3}', '[{"start": 1}]',
                                  '[{"kind": "bogus-data", "params": [1, 2]}]'])
def test_plan_json_rejects_malformed(tmp_path, text):
    with pytest.raises(ConfigError):
        load_attack_plan(_write(tmp_path, text))
