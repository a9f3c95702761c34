import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running (a worker pool not shut down)."""
    yield
    leaked = multiprocessing.active_children()
    if leaked:
        for proc in leaked:
            proc.kill()
            proc.join(timeout=10)
        pytest.fail(f"test left child processes running: {leaked}")
