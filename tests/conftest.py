import os
from pathlib import Path

import pytest

from reformlab import Params, fixture_path

# pytest puts src/ on its own sys.path (pyproject.toml); subprocesses that run
# ``python -m reformlab`` find the checkout's package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture(scope="session")
def sanity() -> Params:
    return Params.load(fixture_path("sanity"))


@pytest.fixture(scope="session")
def part3() -> Params:
    return Params.load(fixture_path("part3"))
