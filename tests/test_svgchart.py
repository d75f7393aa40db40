"""Structural assertions on the generated SVG documents."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ctsbench
from ctsbench.svgchart import cd_diagram_svg, coverage_bar_svg


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestCoverageBars:
    def test_one_bar_per_method(self):
        svg = coverage_bar_svg(["a", "b", "c"], [0.9, 0.85, 0.95], 0.9)
        root = parse(svg)
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == 3
        assert {b.get("data-method") for b in bars} == {"a", "b", "c"}

    def test_dashed_target_line(self):
        svg = coverage_bar_svg(["m"], [0.92], 0.9)
        root = parse(svg)
        lines = [e for e in root.iter() if e.get("class") == "target-line"]
        assert len(lines) == 1
        assert lines[0].get("stroke-dasharray") == "6 4"
        assert lines[0].get("data-value") == "0.900000"

    def test_bar_values_recorded(self):
        svg = coverage_bar_svg(["m1", "m2"], [0.5, 1.0], 0.9)
        values = dict(re.findall(r'data-method="(\w+)"[^>]*data-value="([\d.]+)"', svg))
        assert float(values["m1"]) == pytest.approx(0.5)
        assert float(values["m2"]) == pytest.approx(1.0)

    def test_method_names_escaped(self):
        svg = coverage_bar_svg(["a<b&c"], [0.9], 0.9)
        parse(svg)
        assert "a<b" not in svg

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coverage_bar_svg(["a"], [0.5, 0.6], 0.9)
        with pytest.raises(ValueError):
            coverage_bar_svg([], [], 0.9)


class TestCdDiagram:
    def test_method_dots_and_ranks(self):
        svg = cd_diagram_svg(["a", "b", "c"], [1.2, 2.0, 2.8])
        root = parse(svg)
        dots = [e for e in root.iter() if e.get("class") == "method-dot"]
        assert len(dots) == 3
        ranks = {d.get("data-method"): float(d.get("data-rank")) for d in dots}
        assert ranks["a"] == pytest.approx(1.2)

    def test_clique_bars_only_for_groups(self):
        svg = cd_diagram_svg(
            ["a", "b", "c"], [1.0, 1.5, 3.0], cliques=[(0, 1), (2,)], cd=0.8
        )
        root = parse(svg)
        bars = [e for e in root.iter() if e.get("class") == "clique-bar"]
        assert len(bars) == 1
        assert bars[0].get("data-size") == "2"

    def test_cd_label_present_when_given(self):
        svg = cd_diagram_svg(["a", "b"], [1.0, 2.0], cd=0.5)
        root = parse(svg)
        labels = [e for e in root.iter() if e.get("class") == "cd-label"]
        assert len(labels) == 1
        assert labels[0].get("data-cd") == "0.500000"

    def test_no_cd_label_without_value(self):
        svg = cd_diagram_svg(["a", "b"], [1.0, 2.0])
        root = parse(svg)
        assert not [e for e in root.iter() if e.get("class") == "cd-label"]

    def test_well_formed_with_many_methods(self):
        methods = [f"m{i}" for i in range(8)]
        ranks = [1.0 + i * 0.9 for i in range(8)]
        svg = cd_diagram_svg(methods, ranks, cliques=[(0, 1, 2), (5, 6, 7)], cd=1.1)
        root = parse(svg)
        assert len([e for e in root.iter() if e.get("class") == "clique-bar"]) == 2


def test_import_loads_no_network_modules():
    # The charts escape text through html, not xml.sax.saxutils, whose
    # import pulls in urllib.request and the modules below it.
    src = Path(ctsbench.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, ctsbench; print(sorted(m for m in sys.argv[1:] if m in sys.modules))"
    heavy = ["urllib.request", "http.client", "email", "ssl"]
    proc = subprocess.run(
        [sys.executable, "-c", probe, *heavy], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
