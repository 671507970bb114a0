"""Every demo, and every library example of the README, runs to its
conclusion against the current library API."""
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import volint as vi

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    # the README's python blocks in order, in one namespace, on a data/
    # of a few synthetic stocks plus one whose volume never changes, which
    # the stage counts as degenerate
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                        re.M | re.S)
    assert len(blocks) == 3
    corpus, _ = vi.synth_corpus(4, vi.homogeneous_rule(
        "fgn", 1000, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0}, 11))
    s = corpus.stocks[0]
    flat = vi.DailySeries("FLAT", s.dates, np.full(s.volume.size, 1000),
                          s.close, s.shares_outstanding)
    vi.write_corpus([*corpus, flat], tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert len(namespace["samples"]) == 4
    assert namespace["summary"].n_accepted == 5
    assert capsys.readouterr().out.strip()
