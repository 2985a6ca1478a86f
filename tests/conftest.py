import pytest

import cli_matrix


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus of tests/cli_matrix.py, built once per module."""
    corpus = tmp_path_factory.mktemp("cli_matrix") / "corpus"
    cli_matrix.build_corpus(corpus)
    return corpus
