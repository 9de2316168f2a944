"""One pass of every benchmark workload runs clean against this library.

Building a task list only makes configs and closures; a library name that
only a task body calls is looked up when the task runs.  One pass of each
workload runs every task and its oracle check, so a renamed or deleted name
fails here instead of lowering the benchmark's success rate.  Each workload
draws its phases and bundles from its seed, so a pass runs at seeds 1 to 5.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402
import workloads  # noqa: E402
from torsionlab import cli  # noqa: E402


_CASES = [(name, seed) for name in sorted(workloads.TASK_LISTS) for seed in range(1, 6)]


# a pass at seed 1 is named by its workload alone, the others by workload-seed
@pytest.mark.parametrize("name,seed", _CASES,
                         ids=[name if seed == 1 else f"{name}-{seed}" for name, seed in _CASES])
def test_one_pass_of_the_workload_has_no_failures(tmp_path, name, seed):
    result = measure.run_pass(workloads.build(name, seed, tmp_path))
    assert len(result.latencies) == 25
    assert result.failures == [], "\n".join(result.failures)


# sha256 of crsf.csv and report.txt of the crsf workload's crsf-verify run,
# computed before the census and the sum were one pass over the forests
CRSF_VERIFY_DIGESTS = {
    1: ("449f0398b679014bb3c7c91f0a6f26becdb63418825f7fd839f37717a04a3ed8",
        "185fec191f0c3c7255474d94b9d0b303438f72accbe3cd3f7ce4c899aa050a44"),
    7: ("e67eee2b5e182c171995aafd7a8c6f89633cb377def1ce2ab1c4f19e37f0acfb",
        "d23da6af9b019712a1093f914ec28b4bab26b8c92a2b17948b5235e1a7a537c5"),
}


@pytest.mark.parametrize("seed", sorted(CRSF_VERIFY_DIGESTS))
def test_crsf_verify_files_are_pinned(tmp_path, seed):
    workloads.build("crsf", seed, tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "crsf-verify-torus11n2.json"),
                     "--out", str(out), "--seed", str(seed)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("crsf.csv", "report.txt"))
    assert digests == CRSF_VERIFY_DIGESTS[seed]


# float.hex of each embedding-* task's result (the worst ratio deviation), and
# sha256 of embedding.csv of the mesh-build workload's embedding-check run,
# computed before the embedding identities were one array pass
EMBEDDING_BITS = {
    1: ({"embedding-torus(2,2)-n3": "0x1.b100000000000p-44",
         "embedding-torus(2,2)-n4": "0x1.ea00000000000p-44",
         "embedding-torus(2,2)-n6": "0x1.f700000000000p-44",
         "embedding-rectangle(2,2)-n3": "0x1.a100000000000p-44",
         "embedding-rectangle(2,2)-n4": "0x1.b500000000000p-44",
         "embedding-rectangle(2,2)-n6": "0x1.c400000000000p-44"},
        "7a82e25b17e893db6d7d6944604dd56311c040f2f67d523a16b2781faaf363d8"),
    7: ({"embedding-torus(2,2)-n3": "0x1.7d00000000000p-44",
         "embedding-torus(2,2)-n4": "0x1.0480000000000p-43",
         "embedding-torus(2,2)-n6": "0x1.e000000000000p-44",
         "embedding-rectangle(2,2)-n3": "0x1.d200000000000p-44",
         "embedding-rectangle(2,2)-n4": "0x1.9500000000000p-44",
         "embedding-rectangle(2,2)-n6": "0x1.7700000000000p-44"},
        "86fef1c37b38f31864c9c47559f708a49e92e48cf07181f4e2803ec63c797b9c"),
}


@pytest.mark.parametrize("seed", sorted(EMBEDDING_BITS))
def test_embedding_results_are_pinned(tmp_path, seed):
    tasks = workloads.build("mesh-build", seed, tmp_path)
    results = {t.name: float(t.run()).hex() for t in tasks
               if t.name.startswith("embedding-") and t.name != "embedding-check-torus22"}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "embedding-check-torus22.json"),
                     "--out", str(out), "--seed", str(seed)]) == 0
    digest = hashlib.sha256((out / "embedding.csv").read_bytes()).hexdigest()
    assert (results, digest) == EMBEDDING_BITS[seed]
