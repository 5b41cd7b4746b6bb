"""PEP 517 build backend: setuptools, plus PEP 660 editable hooks that
need no ``wheel`` package.

setuptools before 70 builds editable wheels (and their metadata) through
``bdist_wheel``, which ships in the separate ``wheel`` distribution, so
``pip install -e .`` fails on an offline machine without it.  The
editable wheel built here is the project metadata (from setuptools'
``egg_info``, which needs no ``bdist_wheel``) plus one ``.pth`` line
that puts ``src/`` on ``sys.path``.  Sdists and regular wheels go
straight to setuptools.
"""

from __future__ import annotations

import base64
import email
import hashlib
import pathlib
import subprocess
import sys
import tempfile
import zipfile

from setuptools.build_meta import (  # noqa: F401 — re-exported hooks
    build_sdist,
    build_wheel,
    get_requires_for_build_sdist,
    get_requires_for_build_wheel,
    prepare_metadata_for_build_wheel,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
WHEEL = "Wheel-Version: 1.0\nRoot-Is-Purelib: true\nTag: py3-none-any\n"


def _metadata() -> tuple[str, dict[str, str]]:
    """``(dist-info dir name, {file name: text})`` from ``egg_info``."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", tmp],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        egg = next(pathlib.Path(tmp).glob("*.egg-info"))
        files = {"METADATA": (egg / "PKG-INFO").read_text(), "WHEEL": WHEEL}
        entry_points = egg / "entry_points.txt"
        if entry_points.exists():
            files["entry_points.txt"] = entry_points.read_text()
    meta = email.message_from_string(files["METADATA"])
    return f"{meta['Name']}-{meta['Version']}.dist-info", files


def get_requires_for_build_editable(config_settings=None) -> list[str]:
    return []


def prepare_metadata_for_build_editable(
    metadata_directory, config_settings=None
) -> str:
    name, files = _metadata()
    target = pathlib.Path(metadata_directory, name)
    target.mkdir(parents=True, exist_ok=True)
    for file, text in files.items():
        (target / file).write_text(text)
    return name


def build_editable(
    wheel_directory, config_settings=None, metadata_directory=None
) -> str:
    info, files = _metadata()
    dist = info[: -len(".dist-info")]
    contents = {
        f"__editable__.{dist}.pth": f"{ROOT / 'src'}\n",
        **{f"{info}/{file}": text for file, text in files.items()},
    }
    record = []
    for path, text in contents.items():
        data = text.encode()
        digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
        record.append(f"{path},sha256={digest.decode().rstrip('=')},{len(data)}")
    record.append(f"{info}/RECORD,,")
    contents[f"{info}/RECORD"] = "\n".join(record) + "\n"
    wheel = f"{dist}-py3-none-any.whl"
    with zipfile.ZipFile(pathlib.Path(wheel_directory, wheel), "w") as zf:
        for path, text in contents.items():
            zf.writestr(path, text)
    return wheel
