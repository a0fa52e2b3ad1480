"""Document ingestion for the two supported input grammars.

Plain-annotated text::

    #META id: demo
    #META authors: Smith, J.; Doe, A.
    #SECTION Introduction
    Body text. More body text.

    A blank line separates paragraphs.
    #REFERENCES
    [1] Smith, J. (2011). A title. A Journal, 4(2), 1-10.

A plain line ends only at LF, CR LF or CR. Structured XML uses the
element names fixed in docs/formats.md. Both parsers produce the same
Document model; serialize_document renders the canonical XML form, and
re-parsing that form reproduces the Document field by field. It refuses
a Document whose text holds a character XML 1.0 cannot carry. The model
keeps section headers and reference entries as written; the coders in
syntactic derive D and A from that text.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .codebook import VALUES
from .errors import MalformedInput, UnparseableName, _decode_utf8, _split_lines
from .models import (
    VENUE_TYPES, YEAR_PATTERN, AuthorName, Document, DocumentMetadata, ReferenceEntry, Section,
)
from .names import normalize_author_key
from .refparse import derive_ref_id, parse_reference_entry
from .sentences import DEFAULT_ABBREVIATIONS, segment_sentences

FORMAT_PLAIN = "plain_annotated"
FORMAT_XML = "structured_xml"
FORMATS = (FORMAT_PLAIN, FORMAT_XML)

_META_KEYS = ("id", "title", "authors", "venue", "venue-type", "year", "domain")

_YEAR_RE = re.compile(YEAR_PATTERN)

# The characters outside XML 1.0's Char production (W3C XML 1.0, 2.2):
# C0 controls other than tab, LF and CR, lone surrogates, U+FFFE, U+FFFF.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _parse_year(text: str, warnings: list[str]) -> int | None:
    """A metadata year, read by the grammar markers and entries use."""
    text = text.strip()
    if _YEAR_RE.fullmatch(text) is None:
        warnings.append(f"year {text!r} is not a year in 1400..2099; ignored")
        return None
    return int(text)


def _parse_authors(raws: list[str], warnings: list[str]) -> list[AuthorName]:
    authors = []
    for raw in raws:
        raw = raw.strip()
        if not raw:
            continue
        try:
            authors.append(AuthorName(raw=raw, key=normalize_author_key(raw)))
        except UnparseableName:
            warnings.append(f"unparseable author name {raw!r} skipped")
    return authors


def _finalize_references(
    entries: list[tuple[ReferenceEntry, int | None]], warnings: list[str]
) -> list[ReferenceEntry]:
    """Assign ids, enforce uniqueness of explicit labels.

    An entry that has an id once parsed is explicit, whatever form its
    label took. Explicit ids are claimed first, so a label is never
    renamed; a repeated one raises at its line. Every other entry
    derives an id, keeps it when it is free and otherwise takes
    ``<id>-<n>`` with the least n from 2 that is free. ``taken`` only
    grows, so every n below a base's last pick stays taken and the
    next search for that base starts after it.
    """
    taken: set[str] = set()
    for entry, line_no in entries:
        if entry.ref_id:
            if entry.ref_id in taken:
                raise MalformedInput(f"duplicate reference label {entry.ref_id!r}", line=line_no)
            taken.add(entry.ref_id)
    next_counter: dict[str, int] = {}
    for ordinal, (entry, _) in enumerate(entries, start=1):
        if entry.ref_id:
            continue
        ref_id = derive_ref_id(entry, ordinal)
        if ref_id in taken:
            base = ref_id
            counter = next_counter.get(base, 2)
            while f"{base}-{counter}" in taken:
                counter += 1
            next_counter[base] = counter + 1
            ref_id = f"{base}-{counter}"
            warnings.append(f"derived reference id {base!r} repeated; using {ref_id!r}")
        taken.add(ref_id)
        entry.ref_id = ref_id
    return [entry for entry, _ in entries]


def _build_document(
    meta_fields: dict[str, str],
    author_raws: list[str],
    section_blocks: list[tuple[str, list[str]]],
    entries: list[tuple[ReferenceEntry, int | None]],
    warnings: list[str],
    abbreviations: tuple[str, ...],
    had_reference_block: bool,
) -> Document:
    if not section_blocks:
        raise MalformedInput("document has no sections")
    doc_id = meta_fields.get("id", "").strip()
    if not doc_id:
        raise MalformedInput("missing required metadata field 'id'")

    venue_type = meta_fields.get("venue-type", "").strip().lower()
    if venue_type and venue_type not in VENUE_TYPES:
        warnings.append(f"unknown venue-type {venue_type!r}; using 'other'")
        venue_type = "other"
    domain = meta_fields.get("domain", "").strip() or None
    if domain and domain not in VALUES["K"]:
        warnings.append(f"invalid domain override {domain!r} ignored")
        domain = None
    year = None
    if meta_fields.get("year", "").strip():
        year = _parse_year(meta_fields["year"], warnings)
    authors = _parse_authors(author_raws, warnings)
    if not authors:
        warnings.append("metadata-incomplete: no authors")

    metadata = DocumentMetadata(
        doc_id=doc_id,
        title=" ".join(meta_fields.get("title", "").split()),
        authors=authors,
        venue_name=" ".join(meta_fields.get("venue", "").split()),
        venue_type=venue_type or "other",
        year=year,
        domain_override=domain,
    )

    sentences: list[str] = []
    sections: list[Section] = []
    for header, paragraphs in section_blocks:
        start = len(sentences)
        for paragraph in paragraphs:
            sentences.extend(segment_sentences(paragraph, abbreviations))
        if len(sentences) == start:
            warnings.append(f"section {header!r} has no sentences")
        sections.append(Section(raw_header=header, start=start, end=len(sentences)))

    references = _finalize_references(entries, warnings)
    if not had_reference_block:
        warnings.append("missing-references: no reference block")
    elif not references:
        warnings.append("empty reference list")

    return Document(
        metadata=metadata,
        sections=sections,
        sentences=sentences,
        references=references,
        warnings=warnings,
    )


def _parse_plain(text: str, abbreviations: tuple[str, ...]) -> Document:
    meta_fields: dict[str, str] = {}
    section_blocks: list[tuple[str, list[str]]] = []
    entries: list[tuple[ReferenceEntry, int | None]] = []
    warnings: list[str] = []
    in_references = False
    had_reference_block = False
    paragraph: list[str] = []

    def flush_paragraph() -> None:
        if paragraph and section_blocks:
            section_blocks[-1][1].append(" ".join(paragraph))
        paragraph.clear()

    for line_no, line in enumerate(_split_lines(text), start=1):
        stripped = line.strip()
        if stripped.startswith("#META"):
            flush_paragraph()
            body = stripped[len("#META"):].strip()
            if ":" not in body:
                warnings.append(f"line {line_no}: #META without 'key: value' skipped")
                continue
            key, _, value = body.partition(":")
            key = key.strip().lower()
            if key not in _META_KEYS:
                warnings.append(f"line {line_no}: unknown #META key {key!r} skipped")
                continue
            if section_blocks or in_references:
                warnings.append(f"line {line_no}: #META after body skipped")
                continue
            if key in meta_fields:
                warnings.append(
                    f"line {line_no}: #META key {key!r} repeated; the earlier value is dropped"
                )
            meta_fields[key] = value.strip()
        elif stripped.startswith("#SECTION"):
            flush_paragraph()
            if in_references:
                warnings.append(f"line {line_no}: #SECTION after #REFERENCES skipped")
                continue
            header = stripped[len("#SECTION"):].strip()
            if not header:
                warnings.append(f"line {line_no}: #SECTION without header skipped")
                continue
            section_blocks.append((header, []))
        elif stripped.startswith("#REFERENCES"):
            flush_paragraph()
            in_references = True
            had_reference_block = True
        elif stripped.startswith("#"):
            warnings.append(f"line {line_no}: unknown directive {stripped.split()[0]!r} skipped")
        elif in_references:
            if stripped:
                entry = parse_reference_entry(stripped)
                entries.append((entry, line_no))
        elif not stripped:
            flush_paragraph()
        elif not section_blocks:
            warnings.append(f"line {line_no}: body text before first #SECTION skipped")
        else:
            paragraph.append(stripped)
    flush_paragraph()
    # One #META authors: line lists every author, split on ";".
    author_raws = meta_fields.get("authors", "").split(";")
    return _build_document(
        meta_fields, author_raws, section_blocks, entries, warnings,
        abbreviations, had_reference_block,
    )


def _parse_xml(text: str, abbreviations: tuple[str, ...]) -> Document:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line = exc.position[0] if getattr(exc, "position", None) else None
        raise MalformedInput(f"XML parse failure: {exc}", line=line) from None
    if root.tag != "document":
        raise MalformedInput(f"root element must be <document>, found <{root.tag}>")

    warnings: list[str] = []
    meta_fields: dict[str, str] = {}
    author_raws: list[str] = []
    meta_el = root.find("metadata")
    if meta_el is not None:
        seen: set[str] = set()
        for child in meta_el:
            if child.tag == "authors":
                author_raws = ["".join(a.itertext()) for a in child.findall("author")]
            elif child.tag == "venue":
                meta_fields["venue"] = "".join(child.itertext()).strip()
                if child.get("type"):
                    meta_fields["venue-type"] = child.get("type", "")
            elif child.tag in ("id", "title", "year", "domain"):
                meta_fields[child.tag] = "".join(child.itertext()).strip()
            else:
                warnings.append(f"unknown metadata element <{child.tag}> skipped")
                continue
            if child.tag in seen:
                warnings.append(
                    f"repeated metadata element <{child.tag}>; the earlier value is dropped"
                )
            seen.add(child.tag)

    section_blocks: list[tuple[str, list[str]]] = []
    body_el = root.find("body")
    if body_el is not None:
        for section_el in body_el.findall("section"):
            header = section_el.get("header", "").strip()
            if not header:
                warnings.append("<section> without header attribute skipped")
                continue
            paragraphs = [
                " ".join("".join(p.itertext()).split())
                for p in section_el.findall("paragraph")
            ]
            section_blocks.append((header, [p for p in paragraphs if p]))

    entries: list[tuple[ReferenceEntry, int | None]] = []
    refs_el = root.find("references")
    had_reference_block = refs_el is not None
    if refs_el is not None:
        for ref_el in refs_el.findall("reference"):
            raw = " ".join("".join(ref_el.itertext()).split())
            if not raw:
                warnings.append("empty <reference> element skipped")
                continue
            entry = parse_reference_entry(raw)
            entry.ref_id = entry.ref_id or ref_el.get("id", "")  # a "[n]" label wins
            entries.append((entry, None))
    return _build_document(
        meta_fields, author_raws, section_blocks, entries, warnings,
        abbreviations, had_reference_block,
    )


def parse_document(
    data: bytes | str,
    format: str = FORMAT_PLAIN,
    abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS,
) -> Document:
    """Parse one document in the named input format."""
    if format not in FORMATS:
        raise MalformedInput(f"unknown input format {format!r}")
    text = data if isinstance(data, str) else _decode_utf8(data, "document", MalformedInput)
    if format == FORMAT_XML:
        return _parse_xml(text, abbreviations)
    return _parse_plain(text, abbreviations)


def serialize_document(doc: Document) -> str:
    """Render the canonical XML interchange form of a Document.

    Each sentence is written as its own paragraph, so re-parsing
    re-segments each sentence alone and reproduces the sentence list.
    A character that XML 1.0 cannot carry, even as a reference, raises
    MalformedInput naming the document and the code point.
    """
    # Imported here: importing xml.sax.saxutils loads urllib.request,
    # and with it http.client, ssl, socket and email.
    from xml.sax.saxutils import escape, quoteattr

    meta = doc.metadata
    lines = ["<document>", "  <metadata>"]
    lines.append(f"    <id>{escape(meta.doc_id)}</id>")
    if meta.title:
        lines.append(f"    <title>{escape(meta.title)}</title>")
    if meta.authors:
        lines.append("    <authors>")
        for author in meta.authors:
            lines.append(f"      <author>{escape(author.raw)}</author>")
        lines.append("    </authors>")
    if meta.venue_name or meta.venue_type:
        lines.append(
            f"    <venue type={quoteattr(meta.venue_type)}>{escape(meta.venue_name)}</venue>"
        )
    if meta.year is not None:
        lines.append(f"    <year>{meta.year}</year>")
    if meta.domain_override:
        lines.append(f"    <domain>{escape(meta.domain_override)}</domain>")
    lines.append("  </metadata>")
    lines.append("  <body>")
    for section in doc.sections:
        lines.append(f"    <section header={quoteattr(section.raw_header)}>")
        for index in section.sentence_indices:
            lines.append(f"      <paragraph>{escape(doc.sentences[index])}</paragraph>")
        lines.append("    </section>")
    lines.append("  </body>")
    lines.append("  <references>")
    for ref in doc.references:
        lines.append(f"    <reference id={quoteattr(ref.ref_id)}>{escape(ref.raw)}</reference>")
    lines.append("  </references>")
    lines.append("</document>")
    text = "\n".join(lines) + "\n"
    if bad := _NOT_XML_CHAR.search(text):
        raise MalformedInput(f"document {meta.doc_id!r}: XML cannot carry U+{ord(bad.group()):04X}")
    return text
