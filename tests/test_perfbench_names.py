"""Every package name the benchmark's traced run wraps exists, so renaming or
removing one fails here, not only in the benchmark's own tests."""

import importlib.util
from pathlib import Path

from fhn_meanfield import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_traced_run_wraps_resolves_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports tracing by name
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in layers.WRAPPED
               if not callable(getattr(owner, attr, None))]
    missing += [f"cli.{attr}" for attr in layers.WRITERS
                if not callable(getattr(cli, attr, None))]
    assert layers.WRAPPED and layers.WRITERS
    assert missing == []
