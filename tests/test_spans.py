"""The benchmark's tracer must cover every path ``henkin.cli`` takes.

``bench/spans.py`` swaps the names ``henkin.cli`` looks up for traced
wrappers; in place of the ``reducer`` module it puts a namespace holding
only ``compile`` and ``plan_rows``.  A CLI path that reached any other
reducer name, or a layer function under a new name, would break the
traced benchmark run.  These tests run such paths under the tracer.
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from henkin import cli

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def canon_file(tmp_path):
    path = tmp_path / "canon.txt"
    path.write_text("aa = a\nbb = b\n", encoding="ascii")
    return str(path)


def test_cli_paths_run_under_the_tracer(spans, canon_file, capsys, monkeypatch):
    instance = ["--presentation", canon_file, "--query", "ab = ba"]
    calls = [
        (["compile"] + instance, 0),
        (["crosscheck"] + instance + ["--max-size", "2"], 0),
        (["eval", "--show-witness", "--expr", "H{ forall x ; y(x) } . y = x", "--size", "2"], 0),
        (["fixture", "ceitin-h12"], 0),
    ]
    reducer = cli.reducer
    tracer = spans.Tracer(time.perf_counter)
    with tracer.installed(cli):
        for argv, code in calls:
            assert cli.main(argv) == code, argv
    # An oracle that never finds a model makes crosscheck end in MISMATCH.
    monkeypatch.setattr(cli, "find_witness", lambda *a, **k: None)
    with tracer.installed(cli):
        assert cli.main(["crosscheck"] + instance + ["--max-size", "2"]) == 3
    assert cli.reducer is reducer
    names = {span.name for span in tracer.spans}
    assert {
        "reducer.compile",
        "evaluator.evaluate",
        "evaluator.witness",
        "oracle.find_witness",
        "fixtures.build",
    } <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["reducer.rows"] == 3 * 8
    capsys.readouterr()
