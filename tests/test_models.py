"""Document.section_of: which section holds a sentence."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from citecode.models import Document, DocumentMetadata, Section

from timing import best_times


def _document(lengths):
    """A document of contiguous sections with the given sentence counts."""
    sections = []
    start = 0
    for i, length in enumerate(lengths):
        sections.append(Section(f"S{i}", start, start + length))
        start += length
    return Document(DocumentMetadata(doc_id="d"), sections, ["x."] * start, [])


def reference_section_of(doc, sentence_index):
    """The linear scan section_of replaced."""
    for section in doc.sections:
        if section.start <= sentence_index < section.end:
            return section
    raise IndexError(f"sentence index {sentence_index} outside all sections")


@given(st.lists(st.integers(0, 3), max_size=8), st.data())
def test_section_of_matches_the_linear_scan(lengths, data):
    # Empty sections, no sections, and indices just outside the range.
    doc = _document(lengths)
    index = data.draw(st.integers(-2, len(doc.sentences) + 1))
    try:
        expected = reference_section_of(doc, index)
    except IndexError as exc:
        expected = exc
    try:
        found = doc.section_of(index)
    except IndexError as exc:
        assert str(exc) == str(expected)
    else:
        assert found is expected


def _look_up_every_sentence(doc):
    for index in range(len(doc.sentences)):
        doc.section_of(index)


def test_section_lookup_time_is_linear_in_sections():
    # One sentence per section, every sentence looked up. Quadrupling
    # the sections must cost well under the 16x a scan of the section
    # list per lookup would; 8x leaves room for timer noise.
    small, large = best_times(
        _look_up_every_sentence, _document([1] * 500), _document([1] * 2_000)
    )
    assert large < 8 * small, (small, large)
