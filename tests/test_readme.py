"""The README's CLI examples run as written and print what it says they print."""

import json
import re
from pathlib import Path

from torsionlab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _run(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    return cli.main(["run", "--config", str(cfg), "--out", str(out)]), out


def test_renorm_series_example_runs(tmp_path):
    text = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    assert json.loads(text)["experiment"] == "renorm-series"
    code, out = _run(tmp_path, text)
    assert code == 0 and (out / "series.csv").exists()


def test_c3_example_prints_the_documented_report(tmp_path):
    text = re.search(r"cat > c3.json << 'EOF'\n(.*?\n)EOF\n", README, re.S).group(1)
    report = re.search(r"cat out_c3/report.txt +# (.*)\n", README).group(1)
    code, out = _run(tmp_path, text)
    assert code == 0
    assert (out / "report.txt").read_text() == report + "\n"


def test_twisted_torsion_example_prints_the_documented_row(tmp_path):
    text = re.search(r"cat > twisted.json << 'EOF'\n(.*?\n)EOF\n", README, re.S).group(1)
    row = re.search(r"tail -1 out_twisted/torsion.csv +# (.*)\n", README).group(1)
    code, out = _run(tmp_path, text)
    assert code == 0
    assert (out / "torsion.csv").read_text().splitlines()[-1] == row
