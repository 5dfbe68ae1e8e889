"""Fixture catalogue loading and the audit built on it."""
from stabhom import catalog


def test_audit_reuses_each_fixture_parse(monkeypatch):
    fixtures = catalog.load_catalog()
    texts = []
    parse = catalog.parse

    def recording(text, *args, **kwargs):
        texts.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(catalog, "parse", recording)
    catalog.audit_all(fixtures)
    loaded = {fx.raw["inequality"] for fx in fixtures if "inequality" in fx.raw}
    assert texts, "derivation, alternative and expression-seed strings still parse"
    assert not loaded & set(texts)
