"""One pass of every benchmark workload runs clean against this library.

Building a task list only makes configs and closures; a library name that
only a task body calls is looked up when the task runs.  One pass of each
workload runs every task and its oracle check, so a renamed or deleted name
fails here instead of lowering the benchmark's success rate.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.TASK_LISTS))
def test_one_pass_of_the_workload_has_no_failures(tmp_path, name):
    result = measure.run_pass(workloads.build(name, 1, tmp_path))
    assert len(result.latencies) == 25
    assert result.failures == [], "\n".join(result.failures)
