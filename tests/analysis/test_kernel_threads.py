"""BCC007 fixtures: bare threads in the engine and kernels, not in serving."""

import pytest

from conftest import rules_of

BARE_THREAD = '''
import threading

def run_later(fn):
    worker = threading.Thread(target=fn, daemon=True)
    worker.start()
    return worker
'''


@pytest.mark.parametrize(
    "package", ["repro/api", "repro/core", "repro/baselines"]
)
def test_bare_thread_in_engine_or_kernel_packages_fires(lint, package):
    report = lint({f"{package}/runner.py": BARE_THREAD})
    assert rules_of(report) == ["BCC007"]
    assert "threading.Thread" in report.findings[0].message


def test_from_import_alias_fires(lint):
    report = lint(
        {
            "repro/core/peel.py": '''
            from threading import Thread as Worker

            def peel_async(fn):
                Worker(target=fn).start()
            '''
        }
    )
    assert rules_of(report) == ["BCC007"]


def test_thread_in_server_package_is_out_of_scope(lint):
    report = lint({"repro/server/listener.py": BARE_THREAD})
    assert report.findings == []


def test_locks_and_executors_are_clean(lint):
    report = lint(
        {
            "repro/api/batch.py": '''
            import threading
            from concurrent.futures import ThreadPoolExecutor

            LOCK = threading.Lock()

            def fan_out(fn, rows):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return list(pool.map(fn, rows))
            '''
        }
    )
    assert report.findings == []


def test_noqa_suppresses(lint):
    report = lint(
        {
            "repro/api/runner.py": '''
            import threading

            def run_later(fn):
                threading.Thread(target=fn).start()  # noqa: BCC007 - test seam
            '''
        }
    )
    assert report.findings == []
