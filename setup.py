"""Setuptools shim; all project metadata lives in ``pyproject.toml``.

Kept so legacy ``python setup.py ...`` commands (e.g. ``--name --version``)
keep working.  Installs go through the PEP 517 backend that
``pyproject.toml`` declares (``setuptools.build_meta``); an editable install
without build isolation needs ``wheel`` (or setuptools >= 70.1) present.
"""

from setuptools import setup

setup()
