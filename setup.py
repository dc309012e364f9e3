from setuptools import find_packages, setup

setup(
    name="rtds-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Real-Time Distributed Scheduling of Precedence "
        "Graphs on Arbitrary Wide Networks' (Butelle, Hakem, Finta; IPPS "
        "2007): the RTDS protocol, baselines, a deterministic network "
        "simulator, fault injection, and the paper's experiments"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["rtds=repro.cli:main"]},
)
