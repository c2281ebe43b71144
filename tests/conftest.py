import pytest
from hypothesis import settings

from chain_helpers import ACCEPTANCE_LINES
from v2xmac.config import ScenarioConfig

settings.register_profile("repo", derandomize=True)
settings.load_profile("repo")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def default_scenario():
    return ScenarioConfig().validate()
