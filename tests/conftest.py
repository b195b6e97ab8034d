import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "pkg",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")

# One line per acceptance criterion, emitted after the run so capture
# cannot swallow them.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and
    returns a one-item list that counts its calls."""

    def count(owner, name: str) -> list[int]:
        calls = [0]
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return count
