"""The public surface: the package's exports and the README's examples."""

import re
from pathlib import Path

import snspd_pnr
from snspd_pnr import RunConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", body, re.DOTALL).group(1)


def test_every_exported_name_resolves():
    assert len(set(snspd_pnr.__all__)) == len(snspd_pnr.__all__)
    for name in snspd_pnr.__all__:
        assert getattr(snspd_pnr, name) is not None, name


def test_readme_config_loads(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(readme_block("Command line", "json"), encoding="utf-8")
    cfg = load_config(path)
    assert isinstance(cfg, RunConfig)
    assert cfg.detector.grid.element_count == 24
    assert cfg.sim.n_bar_values == (1.0, 2.0, 3.0)


def test_readme_library_example_fit_converges(capsys):
    scope: dict = {}
    exec(compile(readme_block("Library example", "python"), str(README), "exec"), scope)
    result = scope["result"]
    assert result.converged
    assert result.bootstrap_converged == 100
    assert capsys.readouterr().out.count("\n") == 2
