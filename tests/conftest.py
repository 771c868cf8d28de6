from hypothesis import settings

# Property tests draw the same examples on every run and have no time limit,
# so a slow machine cannot turn them into flaky failures.  A test's own
# @settings (such as max_examples) still applies on top of this profile.
settings.register_profile("egtan", derandomize=True, deadline=None)
settings.load_profile("egtan")
