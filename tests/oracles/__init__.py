"""Reference implementations the production fast paths are tested against.

Each module here is a slow, literal transcription of a specification
that the production code once ran and now only has to equal.
"""
