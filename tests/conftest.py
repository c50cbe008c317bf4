from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.register_profile("deep", settings.get_profile("suite"), max_examples=600)
settings.load_profile("suite")
