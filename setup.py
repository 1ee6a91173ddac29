"""Packaging entry point.

The offline evaluation environment cannot reach PyPI, so ``pip install -e .``
must avoid PEP 517 build isolation (which downloads setuptools/wheel into a
fresh build environment).  ``pyproject.toml`` exists for tool configuration
(ruff) and declares a plain setuptools build backend; offline installs must
pass ``--no-build-isolation`` so the already-installed setuptools is used.
All package metadata stays here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'MALEC: A Multiple Access Low Energy Cache' (DATE 2013)"
    ),
    author="MALEC Reproduction Authors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 5 - Production/Stable",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
