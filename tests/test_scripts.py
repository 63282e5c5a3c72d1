import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_hopf_sweep_reports_both_sides_of_the_threshold():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hopf_sweep.py"),
         "--start", "5.0", "--stop", "6.0", "--step", "1.0"],
        env=env, capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["i_ext", "regime", "v*", "trace", "period"]
    cells = [row.split() for row in rows]
    assert [c[:2] for c in cells] == [["5.000", "MonostableStable"],
                                      ["6.000", "Oscillatory"]]
    assert len(cells[0]) == 4  # no period below the threshold
    assert float(cells[1][4]) > 0
