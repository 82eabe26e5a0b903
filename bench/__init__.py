"""The repository's benchmark: the paper loop and the store scenario.

See ``bench/README.md``; the entry point is ``bench/run.py``.
"""
