"""Shim for ``python setup.py ...`` commands.  All real metadata lives in
pyproject.toml; editable installs go through the in-tree backend
``scripts/editable_backend.py``, which needs no ``wheel`` package."""

from setuptools import setup

setup()
