import os
import shutil
import subprocess

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_no_tracked_file_is_ignored():
    # generated or stale files that .gitignore lists must not be committed
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")
    r = subprocess.run(["git", "ls-files", "--cached", "--ignored",
                        "--exclude-standard"],
                       cwd=ROOT, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
