"""Package metadata for the ``repro`` NoC emulation framework.

Self-contained: there is no pyproject.toml, so everything lives here.
Editable installs on hosts without the ``wheel`` package go through
``pip install -e . --no-use-pep517``, which needs this entry point.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # repro.__version__
    description="A complete network-on-chip emulation framework",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
)
