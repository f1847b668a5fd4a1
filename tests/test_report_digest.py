"""The reports of the benchmark's inputs and of the owner-shape fixtures,
pinned by ``report_digest.py``'s seed-7 lines: a change that moves a report
updates a line here and names the move in CHANGES.md."""

import importlib
from pathlib import Path

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"

PINNED = [
    "corpus e259877da959e32c17451943a813c948f05e30356e7545e1a7713a2c8acc8dee 28",
    "hub-unpruned 28534f2adc76d28de79dd06480312d958f0d2d299436db7ef58771772c2c91c6 80",
    "wide-json 8053f3ddc28aa19ad00d691e1a37d03c4b70413354299050f36f8a8c1f181970 32",
    "owner-variants 782f998ca2d047fbf13799aac657fb04c4cd87724a5d5dda803c52f9101bc9f8 12",
]


def test_the_seed_7_report_digests_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    report_digest = importlib.import_module("report_digest")
    assert report_digest.lines(7) == PINNED
