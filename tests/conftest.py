"""Checks run around every test of the suite."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped.

    ``waitpid(0, WNOHANG)`` asks about the children in this process's own
    group, and reaps one that has exited.  A fixture that keeps a process
    running across tests on purpose starts it in a session of its own.
    """
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(0, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: pid {pid}, status {status}" if pid
                else "a child process is still running after the test")
