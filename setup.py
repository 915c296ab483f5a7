"""Legacy setup shim.

This offline environment has no ``wheel`` package, so pip's PEP 660
editable path (which shells out to ``bdist_wheel``) fails.  Providing a
``setup.py`` lets ``pip install -e .`` use the legacy ``setup.py
develop`` route, which needs nothing from the network.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of 'An Algorithm for Bi-Decomposition of "
                 "Logic Functions' (DAC 2001)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.bdd": ["_kernel.c"]},
    python_requires=">=3.9",
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
)
