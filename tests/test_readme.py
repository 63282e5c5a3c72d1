"""The README's library sketch runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs_as_written():
    text = README.read_text()
    sketch = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    rec, comp = names["rec"], names["comp"]
    assert np.array_equal(comp.t, rec.t) and np.isfinite(comp.mean_error).all()
    assert names["report"].regime
