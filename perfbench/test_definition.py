"""BENCHMARK.json names exactly the metrics the runner prints."""

import json
from pathlib import Path

from run import END_TO_END_UNITS
from spans import layer_metric_names

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS


def test_per_layer_metrics_match_tracer():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layer_metric_names()
