"""Fixtures shared by the test modules: the table writer's forked blocks."""

import os

import pytest

from logergodic import stochastic


@pytest.fixture
def force_writers(monkeypatch):
    """A function of (workers, chunk_rows=None) that has the table writer cut
    its rows into as many as `workers` blocks, whatever the CPUs and however
    few the rows, and returns the list of the temporary files of each forked
    writer, filled as they start."""
    def force(workers: int, chunk_rows: int | None = None) -> list:
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: workers)
        monkeypatch.setattr(stochastic, "_FORK_MIN_ROWS", 1)
        if chunk_rows:
            monkeypatch.setattr(stochastic, "_CHUNK_ROWS", chunk_rows)
        forked = []
        fork_writer = stochastic._fork_writer

        def spy(files, texts, finals):
            forked.append(files)
            return fork_writer(files, texts, finals)
        monkeypatch.setattr(stochastic, "_fork_writer", spy)
        return forked
    return force


@pytest.fixture
def assert_writers_gone():
    """A function of (directory, names) that asserts the directory holds
    exactly the files `names`, so no temporary file is left, and that no
    child process is left unreaped."""
    def check(out, names) -> None:
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
