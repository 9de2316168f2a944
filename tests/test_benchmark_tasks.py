"""One pass of every benchmark workload runs clean against this library.

Building a task list only makes configs and closures; a library name that
only a task body calls is looked up when the task runs.  One pass of each
workload runs every task and its oracle check, so a renamed or deleted name
fails here instead of lowering the benchmark's success rate.  Each workload
draws its phases and bundles from its seed, so a pass runs at seeds 1 to 5.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402
import workloads  # noqa: E402


_CASES = [(name, seed) for name in sorted(workloads.TASK_LISTS) for seed in range(1, 6)]


# a pass at seed 1 is named by its workload alone, the others by workload-seed
@pytest.mark.parametrize("name,seed", _CASES,
                         ids=[name if seed == 1 else f"{name}-{seed}" for name, seed in _CASES])
def test_one_pass_of_the_workload_has_no_failures(tmp_path, name, seed):
    result = measure.run_pass(workloads.build(name, seed, tmp_path))
    assert len(result.latencies) == 25
    assert result.failures == [], "\n".join(result.failures)
