from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite's result does not depend on machine speed or on
# a local .hypothesis/ directory.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
