import pytest

import fixtures as corpus

from sleepscan import pipeline


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """All fixture artifacts written out once, in the directory layout the
    loader expects (one subdirectory per contract)."""
    directory = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def corpus_reports(corpus_dir):
    """Contract name -> analysis report for the whole corpus."""
    config = pipeline.RunConfig(timeout_seconds=120)
    reports = {}
    for sub in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        for report in pipeline.analyze_path(str(sub), config):
            reports[report["contract"]] = report
    return reports


def finding_types(report):
    return sorted({f["type"] for f in report["findings"]})
