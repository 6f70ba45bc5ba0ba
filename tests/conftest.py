"""Session fixtures shared by the test modules.

`suite_report(name)` is the full-scale report of one `verify` suite, as
`python -m regcycle verify --suite NAME --seed 0` computes it at the default
cap. Each suite runs at most once per session, so the acceptance criteria
and the stdout digests read the same report. The terminal summary lists
every suite the fixture ran, with its run count and elapsed time.
"""

import functools

import pytest

from regcycle.verify import RunConfig, run_suite

# suite name -> (runs, seconds) of the full-scale runs made this session
RUN_LOG = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def suite_report(pytestconfig):
    log = pytestconfig.stash.setdefault(RUN_LOG, {})

    @functools.cache
    def run(name: str):
        report = run_suite(name, RunConfig(seed=0))
        runs, seconds = log.get(name, (0, 0.0))
        log[name] = (runs + 1, seconds + report.elapsed)
        return report

    return run


def pytest_terminal_summary(terminalreporter, config):
    log = config.stash.get(RUN_LOG, {})
    if log:
        terminalreporter.section("full-scale verify suites")
    for name, (runs, seconds) in log.items():
        terminalreporter.write_line(f"{name}: {runs} run(s), {seconds:.1f}s")
