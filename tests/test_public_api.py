"""The package's public surface: README's quick start and its entry points."""
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparsemob

README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = README.parent / "perfbench"

#: the entry points README's "Library quick start" names
ENTRY_POINTS = [
    "compute_metrics",
    "continuous_labels",
    "exact_label",
    "generate_ctrw",
    "hmm_train",
    "observe",
    "resampling_experiment",
    "sds_label",
    "voting_train",
]

#: the label codes and the types the entry points take or return
TYPES = [
    "BucketConfig",
    "CtrwConfig",
    "ExperimentConfig",
    "GroundTruthPath",
    "HmmModel",
    "LABEL_STAY",
    "LABEL_TRAVEL",
    "LABEL_UNLABELED",
    "LabeledTrajectory",
    "MetricsReport",
    "MobilityParams",
    "RateOutcome",
    "Trajectory",
    "VotingModel",
]


def quick_start() -> tuple[str, str]:
    """README's "Library quick start" section and its code block."""
    text = README.read_text()
    section = text.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return section, code


def test_quick_start_prints_its_labels():
    _, code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "SSSSU\n"


def test_all_is_readme_entry_points_and_their_types():
    assert sorted(sparsemob.__all__) == sorted(ENTRY_POINTS + TYPES)
    namespace: dict = {}
    exec("from sparsemob import *", namespace)
    for name in sparsemob.__all__:
        assert namespace[name] is getattr(sparsemob, name)
    assert set(namespace) - {"__builtins__"} == set(sparsemob.__all__)


def test_names_resolve_on_first_use():
    # a fresh interpreter, where no name has been looked up yet: dir lists
    # them all, and a star import binds every one
    code = """
import sparsemob
listed = set(dir(sparsemob))
namespace = {}
exec("from sparsemob import *", namespace)
print(set(sparsemob.__all__) <= listed, sorted(namespace) == sorted(
    sparsemob.__all__ + ["__builtins__"]), *sorted(sparsemob.__all__))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(sparsemob.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["True", "True", *sorted(ENTRY_POINTS + TYPES)]


def test_unknown_attribute_is_the_standard_error():
    with pytest.raises(AttributeError) as caught:
        sparsemob.no_such_name
    assert str(caught.value) == "module 'sparsemob' has no attribute 'no_such_name'"
    assert not hasattr(sparsemob, "no_such_name")


def test_readme_names_the_entry_points():
    section, code = quick_start()
    imported = re.search(r"from sparsemob import (.*)", code).group(1).split(", ")
    # every lower-case name in backticks, less the package's own
    named = [n for n in re.findall(r"`(\w+)`", section) if n != "sparsemob"]
    assert sorted({n for n in imported + named if n.islower()}) == ENTRY_POINTS
    assert {n for n in imported if not n.islower()} <= set(TYPES)


def test_benchmark_modules_import_against_the_package(tmp_path):
    # the benchmark builds its inputs and checks its outputs with these
    # modules: a name they import from the package must not go unnoticed
    code = "import sys; sys.path.insert(0, sys.argv[1]); import inputs, checks"
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(sparsemob.__file__).parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-c", code, str(PERFBENCH)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert list(tmp_path.iterdir()) == []
