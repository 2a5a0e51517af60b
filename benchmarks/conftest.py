"""Shared fixtures for the benchmark harnesses.

The full (design x benchmark) co-analysis grid backs every table and
figure; each ``pytest benchmarks/ --benchmark-only`` session runs it
once and every harness renders its artifact from that one result.
"""

from pathlib import Path

import pytest

from repro.reporting.runner import DESIGN_ORDER, run_grid
from repro.resilience.artifacts import atomic_write_text
from repro.workloads import WORKLOAD_ORDER

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


@pytest.fixture(scope="session")
def grid():
    """results[design][benchmark] for the full paper grid."""
    return run_grid()


@pytest.fixture(scope="session")
def designs():
    return list(DESIGN_ORDER)


@pytest.fixture(scope="session")
def benchmarks_list():
    return list(WORKLOAD_ORDER)


@pytest.fixture(scope="session")
def artifact_dir():
    ARTIFACT_DIR.mkdir(exist_ok=True)
    return ARTIFACT_DIR


def emit(artifact_dir: Path, name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/artifacts/.

    Written atomically: a benchmark run killed mid-emit leaves the
    previous complete artifact, not a torn one."""
    print()
    print(text)
    atomic_write_text(artifact_dir / name, text + "\n")
