import qcorona


def test_every_exported_name_exists():
    missing = [name for name in qcorona.__all__ if not hasattr(qcorona, name)]
    assert missing == []
