from hypothesis import settings

# property tests draw the same examples on every run, and are not timed
settings.register_profile("hetgp", derandomize=True, deadline=None, database=None)
settings.load_profile("hetgp")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance: end-to-end criteria with their own runtime budgets",
    )
