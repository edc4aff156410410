"""Classic setup.py kept for offline environments without the ``wheel``
package, where ``pip install -e .`` cannot build a PEP 660 editable
wheel.  ``python setup.py develop`` installs an egg-link instead.
Configuration lives in pyproject.toml; this file only mirrors it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.2"],
)
