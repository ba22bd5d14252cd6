"""The acceptance summary in conftest.py decides the exit status of a run."""
from pathlib import Path

import pytest

CONFTEST = (Path(__file__).parent / "conftest.py").read_text()


@pytest.mark.parametrize(
    "body, status, code",
    [
        ("pass", "PASS", pytest.ExitCode.OK),
        ("pytest.skip('not run')", "FAIL", pytest.ExitCode.TESTS_FAILED),
    ],
)
def test_failed_criterion_sets_exit_status(pytester, body, status, code):
    pytester.makeconftest(CONFTEST)
    pytester.makepyfile(
        f"""
        import pytest

        @pytest.mark.acceptance(1, "demo")
        def test_criterion():
            {body}
        """
    )
    result = pytester.runpytest_subprocess()
    result.stdout.fnmatch_lines([f"[[]{status}[]] criterion 1: demo"])
    assert result.ret == code
