"""Command-line runs end to end."""

from driftcorner import cli
from driftcorner.fusion import save_preview


def test_deploy_completes_under_mismatch(uturn_preview8, tmp_path):
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--mu-deploy", "0.75", "--mass-scale", "1.1",
                     "--out", str(out)]) == 0
    assert "chi=1" in (out / "summary.txt").read_text()
