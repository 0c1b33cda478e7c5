"""What only a fresh interpreter can show: import weight, warning gates."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]


def python(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120.0,
        cwd=cwd,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )


def test_importing_the_runtime_does_not_import_scipy_optimize():
    """Only Figure 3's ``gnp`` series solves least squares; every live
    process (each shard worker too) used to pay ~16 MB for the import."""
    result = python(
        "-c",
        "import sys, repro.runtime, repro.cli; "
        "sys.exit('scipy.optimize' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr


def test_a_dropped_owed_awaitable_fails_the_test_that_dropped_it(tmp_path):
    """``handler(frame)`` may return an awaitable; whoever drops it gets
    a failing test from pyproject's ``filterwarnings``, not a printed
    RuntimeWarning."""
    (tmp_path / "test_dropped.py").write_text(
        textwrap.dedent(
            """
            import gc

            from repro.runtime.wire import Frame, MsgType


            async def handler(frame):
                pass


            def test_drops_what_the_handler_is_owed():
                owed = handler(Frame(MsgType.HEARTBEAT, 1, {}))
                assert owed is not None
                del owed  # never awaited
                gc.collect()
            """
        )
    )
    result = python(
        "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
        "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(tmp_path),
    )  # fmt: skip
    assert result.returncode == 1, result.stdout + result.stderr
    assert "was never awaited" in result.stdout
