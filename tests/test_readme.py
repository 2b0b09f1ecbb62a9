"""README.md against the code: it names everything a user can set or get, and
its examples run as written.

The output names come from the manifests of tiny runs, not from a list kept
here, so a new output file fails the naming test until README names it.  A
numbered name's digits are matched by a placeholder: ``pattern_N200.csv``
is named by ``pattern_N<k>.csv``, ``seed0`` by ``seed<k>``.
"""

import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

import ghostsim
from ghostsim import ExperimentConfig
from ghostsim.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

TINY = """
source_points = 64
source_pitch = 16e-6
object_points = 71
object_pitch = 6e-6
detector_points = 16
detector_pitch = 24e-6
phi = 0.8e-3
schedule = 20, 40
batch = 16
speckle_points = 48
speckle_pitch = 40e-6
speckle_phi_list = 5e-4
speckle_n = 40
"""

FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def named(name: str) -> bool:
    """Whether README names ``name`` as a whole word, its digits as ``<k>``."""
    pattern = re.escape(re.sub(r"\d+", "<k>", name)).replace("<k>", "<[a-z]+>")
    return re.search(rf"(?<![\w.-]){pattern}(?![\w-])", README) is not None


def blocks(language: str) -> list[str]:
    return [body for lang, body in FENCED.findall(README) if lang == language]


def test_readme_names_every_config_key():
    missing = [f.name for f in dataclasses.fields(ExperimentConfig)
               if f"`{f.name}`" not in README]
    assert not missing, f"README names no config key {missing}"


def test_readme_names_every_subcommand_and_its_long_options():
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, sub in subparsers.choices.items():
        if f"`{name}`" not in README:
            missing.append(name)
        missing += [f"{name} {opt}" for action in sub._actions for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help" and not named(opt)]
    assert not missing, f"README does not name {missing}"


def test_readme_names_every_output_file_and_csv_header(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    runs = {
        "converge": ["--seed", "0,1"],
        "sweep-kappa": ["--seed", "0,1", "--phi-list", "0.6e-3,0.8e-3", "--tau", "0.5"],
        "speckle": [],
    }
    outputs, headers, keys = {"manifest.json"}, set(), set()
    for command, extra in runs.items():
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out-dir", str(out), *extra]) == 0
        manifests = [out / "manifest.json"]
        while manifests:  # a seed list's manifest lists each seed's own
            where = manifests.pop()
            manifest = json.loads(where.read_text())
            keys.update(manifest)
            for rel in manifest["outputs"]:
                outputs.update(Path(rel).parts)
                path = where.parent / rel
                if path.name == "manifest.json":
                    manifests.append(path)
                elif path.suffix == ".csv":
                    first = path.read_text().partition("\n")[0]
                    if not re.match(r"[-+\d.]", first):  # grids have no header
                        headers.add(first)
    assert {"speckle.csv", "curve_median.csv", "kappa_median.csv"} <= outputs
    missing = sorted(name for name in outputs if not named(name))
    missing += sorted(h for h in headers if f"`{h}`" not in README)
    missing += sorted(k for k in keys if f"`{k}`" not in README)
    assert not missing, f"README names no {missing}"


def test_readme_command_lines_parse_and_name_existing_studies():
    lines = [line for body in blocks("sh") for line in body.splitlines()
             if line.startswith("ghostsim ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
    cited = set(re.findall(r"studies/[\w.-]+\.cfg", README))
    assert cited == {f"studies/{p.name}" for p in (ROOT / "studies").glob("*.cfg")}


def test_readme_python_example_runs(capsys):
    code, = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_importable_names_are_exported():
    paragraph, = (p for p in README.split("\n\n") if "importable" in p)
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 10
    missing = [n for n in names if not hasattr(ghostsim, n)]
    assert not missing, f"README calls {missing} importable; ghostsim has no such name"
