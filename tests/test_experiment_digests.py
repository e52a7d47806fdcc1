"""Pin the rendered text of every ``experiments`` table.

Each experiment is run in-process through the CLI entry point and the
sha256 of its stdout is compared with the digest recorded before the
analysis layer was rebuilt on one table type: a formatting slip (a column
width, a number format, a title) changes the digest even when every golden
value still holds.  ``sweep`` prints wall-clock and cache counts on its
first line, so that line is dropped before hashing.
"""

import hashlib

import pytest

from repro.cli import main

#: First 16 hex digits of the sha256 of each experiment's stdout.
EXPERIMENT_DIGESTS = {
    "serving": "dcde05e768b938c8",
    "sweep": "e80d8c54a6de075e",
    "fleet": "ed7c0786f52f9cbb",
    "prefix-cache": "829ae9118c5cac95",
    "tenant-qos": "1dee7522ea058499",
    "fig1": "9425e8ab92c6e077",
    "fig2": "4f5e07e659cc42be",
    "fig3": "aefd839b6bfdf14c",
    "fig4": "a464ac4181f87bf6",
    "fig5": "6761db850d472271",
    "fig6": "e99225a60b12ac15",
    "fig7": "16a3978fcf95e22e",
    "fig8": "5832aec5e1c21120",
    "fig9": "17e738263d8dfbc5",
    "fig10": "64181ea52b25fb32",
    "fig11": "353892790ab96861",
    "fig12": "040a678877f6533d",
    "fig13": "74a3290b2906988b",
    "fig14": "74a3290b2906988b",
    "tab2": "f429143df2d11808",
    "tab3": "5eef7b5ee7486c34",
    "tab4": "3cfe5c180b9728de",
}


def test_every_experiment_is_pinned(capsys):
    assert main(["experiments", "--list"]) == 0
    listed = capsys.readouterr().out.split(":", 1)[1]
    assert sorted(name.strip() for name in listed.split(",")) == sorted(EXPERIMENT_DIGESTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_rendered_text_unchanged(name, capsys):
    assert main(["experiments", name]) == 0
    out = capsys.readouterr().out
    if name == "sweep":
        out = out.split("\n", 1)[1]
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digest == EXPERIMENT_DIGESTS[name]
