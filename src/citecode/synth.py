"""Synthetic corpus generator for scale and determinism testing.

Documents are built from template sentences around markers that point
at the generated reference list, so most citations resolve. Content is
a pure function of (seed, index); regenerating a corpus with the same
arguments writes byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

from .ingest import FORMAT_PLAIN, FORMAT_XML, serialize_document
from .models import AuthorName, Document, DocumentMetadata, ReferenceEntry, Section
from .names import normalize_author_key

SURNAMES = (
    "Ashby", "Barton", "Calder", "Deol", "Eriksen", "Farrell", "Gupta",
    "Hollis", "Ibarra", "Jansen", "Keller", "Lindqvist", "Mercer", "Novak",
    "Okafor", "Petrov", "Quon", "Ramires", "Sandoval", "Tanaka", "Ulmer",
    "Vasquez", "Wanner", "Xiong", "Yates", "Zamora", "Brandt", "Chowdhury",
    "Duarte", "Eaton", "Fontaine", "Grieve", "Haber", "Iverson", "Joshi",
    "Kramer", "Lowell", "Moroz", "Neal", "Osei",
)
_INITIALS = ("A", "E", "M", "R")

# Roughly 160 distinct author identities across the whole corpus.
AUTHOR_POOL = tuple((s, i) for s in SURNAMES for i in _INITIALS)

VENUES = (
    ("Journal of Information Science Quarterly", "journal"),
    ("Communication Research Letters", "journal"),
    ("Journal of Management Studies", "journal"),
    ("Sociological Methods Review", "journal"),
    ("Journal of the History of Ideas", "journal"),
    ("Applied Linguistics Notes", "journal"),
    ("Cell Systems Reports", "journal"),
    ("Physical Review Letters B", "journal"),
    ("Genome Biology Letters", "journal"),
    ("IEEE Transactions on Software Tools", "journal"),
    ("Proceedings of the Annual Computing Symposium", "conference"),
    ("Handbook of Categorical Records", "book"),
    ("Annals of Miscellany", "journal"),
    ("Erewhon Review", "journal"),
)

_TITLE_WORDS = (
    "archival", "coding", "category", "drift", "signal", "measure",
    "sampling", "annotation", "registry", "catalog", "index", "margin",
    "protocol", "audit", "ledger", "boundary", "cohort", "lattice",
)

_SECTIONS = (
    ("Abstract", 3),
    ("Introduction", 10),
    ("Methods", 10),
    ("Results", 12),
    ("Discussion", 10),
    ("Conclusion", 5),
)

_FILLERS = (
    "The corpus was compiled from institutional archives over two collection cycles.",
    "Annotation guidelines were drafted and revised by the project team.",
    "Descriptive statistics are reported for each subgroup in the appendix.",
    "The sampling frame covered three consecutive publication years.",
    "Each record was screened twice before inclusion.",
    "Agreement between coders was checked on a held-out batch.",
    "The instrument was translated and back-translated by two assistants.",
    "Missing values were rare and handled by listwise deletion.",
    "Coding proceeded in randomized order to reduce drift.",
    "The appendix lists all category definitions in full.",
    "Counts were tallied separately for each venue and year.",
    "A second pass confirmed the section boundaries.",
)

# Fillers that deliberately carry sentiment or function cues, so the
# synthetic records spread across the I and J values.
_CUE_FILLERS = (
    "However, transfer between settings remains difficult.",
    "This reading has a problem that later sections revisit.",
    "The measurement stage worked successfully in both waves.",
    "Prior audits have shown stable totals across years.",
    "The coding scheme is based on a shared vocabulary.",
)

_FOCUS_SENTENCES = (
    "Participants completed the laboratory task in a fixed order.",
    "Responses came from a survey administered by mail.",
    "The argument rests on a theorem about closure.",
    None,
)


def _author_label(surname: str, initial: str) -> str:
    return f"{surname}, {initial}."


def _author_block(authors: list[tuple[str, str]]) -> str:
    labels = [_author_label(s, i) for s, i in authors]
    if len(labels) == 1:
        return labels[0]
    return ", ".join(labels[:-1]) + ", & " + labels[-1]


def _title(rng: random.Random) -> str:
    words = rng.sample(_TITLE_WORDS, rng.randint(3, 4))
    return " ".join(words).capitalize()


def _reference(rng: random.Random, surname: str, label: int | None) -> dict:
    """One bibliography entry plus the fields markers need."""
    n_authors = rng.choice((1, 1, 2, 2, 3))
    authors = [(surname, rng.choice(_INITIALS))]
    while len(authors) < n_authors:
        candidate = rng.choice(AUTHOR_POOL)
        if candidate[0] != surname:
            authors.append(candidate)
    year = rng.randint(1964, 2019)
    block = _author_block(authors)
    title = _title(rng)
    kind = rng.choice("AAAABBCCDEF")
    if kind == "A":
        venue = rng.choice(VENUES)[0]
        tail = f"{venue}, {rng.randint(1, 80)}({rng.randint(1, 12)}), {rng.randint(1, 200)}-{rng.randint(201, 400)}."
    elif kind == "B":
        tail = (
            f"In Proceedings of the {rng.randint(2, 30)}th Symposium on "
            f"{rng.choice(_TITLE_WORDS).capitalize()}, pages {rng.randint(1, 99)}-{rng.randint(100, 199)}."
        )
    elif kind == "C":
        tail = f"{rng.choice(('Amsterdam', 'Chicago', 'Leiden', 'Toronto'))}: Meridian Press."
    elif kind == "D":
        tail = f"Technical report {rng.randint(1, 99)}, Bureau of Records."
    elif kind == "E":
        tail = f"Retrieved from https://example.org/{rng.choice(_TITLE_WORDS)}{rng.randint(1, 99)}"
    else:
        tail = "Unpublished manuscript."
    prefix = f"[{label}] " if label is not None else ""
    return {
        "line": f"{prefix}{block} ({year}). {title}. {tail}",
        "surnames": [s for s, _ in authors],
        "year": year,
        "label": label,
    }


def _marker(rng: random.Random, ref: dict, numeric: bool) -> tuple[str, bool]:
    """Build one citation marker; returns (text, is_narrative)."""
    if numeric:
        return f"[{ref['label']}]", False
    year = ref["year"]
    names = ref["surnames"]
    style = rng.randint(0, 4)
    if style == 0:
        return f"({names[0]}, {year})", False
    if style == 1 and len(names) >= 2:
        return f"({names[0]} & {names[1]}, {year})", False
    if style == 2 and len(names) >= 3:
        return f"({names[0]} et al., {year})", False
    if style == 3:
        return f"{names[0]} ({year})", True
    return f"({names[0]}, {year})", False


def _citation_sentence(rng: random.Random, ref: dict, numeric: bool) -> str:
    marker, narrative = _marker(rng, ref, numeric)
    if narrative:
        return rng.choice((
            f"{marker} argued that the sample should be stratified.",
            f"{marker} tabulated the same categories a decade earlier.",
            f"As {marker} put it, \"the unit of analysis sets the price of inference\".",
        ))
    roll = rng.random()
    if roll < 0.12 and not numeric:
        inner = marker[1:-1]
        return f"One review lists the relevant measures ({inner}, pp. {rng.randint(10, 80)}-{rng.randint(81, 120)})."
    if roll < 0.24 and not numeric:
        inner = marker[1:-1]
        return f"Comparable categories exist elsewhere (e.g., {inner})."
    return rng.choice((
        f"Earlier accounts described the archive in detail {marker}.",
        f"A related result appears in earlier work {marker}.",
        f"The design mirrors an earlier protocol {marker}.",
        f"Similar totals were reported independently {marker}.",
    ))


def synth_document(
    index: int,
    seed: int = 7,
    sentences: int = 50,
    refs: int = 20,
) -> tuple[str, str, str]:
    """Build document number ``index``; returns (filename, format, content)."""
    rng = random.Random(f"{seed}:{index}")
    doc_id = f"syn-{index:04d}"
    numeric = index % 4 == 3
    doc_format = FORMAT_XML if index % 3 == 2 else FORMAT_PLAIN

    doc_authors = [
        _author_label(s, i)
        for s, i in rng.sample(AUTHOR_POOL, rng.randint(1, 4))
    ]
    venue_name, venue_type = rng.choice(VENUES)
    domain_override = "K2" if rng.random() < 0.05 else None

    first_surnames = rng.sample(SURNAMES, min(refs, len(SURNAMES)))
    entries = [
        _reference(rng, surname, i + 1 if numeric else None)
        for i, surname in enumerate(first_surnames)
    ]
    anchor = entries[0]

    scale = sentences / sum(count for _, count in _SECTIONS)
    focus_sentence = rng.choice(_FOCUS_SENTENCES)
    sections: list[tuple[str, list[str]]] = []
    for header, base_count in _SECTIONS:
        count = max(1, round(base_count * scale))
        body: list[str] = []
        if header == "Methods" and focus_sentence:
            body.append(focus_sentence)
        while len(body) < count:
            roll = rng.random()
            if roll < 0.40:
                ref = anchor if rng.random() < 0.25 else rng.choice(entries)
                body.append(_citation_sentence(rng, ref, numeric))
            elif roll < 0.55:
                body.append(rng.choice(_CUE_FILLERS))
            else:
                body.append(rng.choice(_FILLERS))
        sections.append((header, body))
    if index % 7 == 0:
        sections[1][1].append("This pattern was never replicated (Zzyzx, 1888).")

    meta = {
        "id": doc_id,
        "title": _title(rng),
        "authors": "; ".join(doc_authors),
        "venue": venue_name,
        "venue-type": venue_type,
        "year": str(rng.randint(1995, 2021)),
    }
    if domain_override:
        meta["domain"] = domain_override

    if doc_format == FORMAT_PLAIN:
        content = _render_plain(meta, sections, entries, index)
        return f"{doc_id}.txt", doc_format, content
    content = _render_xml(meta, sections, entries)
    return f"{doc_id}.xml", doc_format, content


def _render_plain(meta, sections, entries, index) -> str:
    lines = [f"#META {key}: {value}" for key, value in meta.items()]
    if index % 11 == 0:
        lines.append("#NOTE synthetic fixture")
    for header, body in sections:
        lines.append("")
        lines.append(f"#SECTION {header}")
        midpoint = max(1, len(body) // 2)
        lines.extend(body[:midpoint])
        lines.append("")
        lines.extend(body[midpoint:])
    lines.append("")
    lines.append("#REFERENCES")
    lines.extend(entry["line"] for entry in entries)
    return "\n".join(lines) + "\n"


def _render_xml(meta, sections, entries) -> str:
    metadata = DocumentMetadata(
        doc_id=meta["id"],
        title=meta["title"],
        authors=[AuthorName(raw, normalize_author_key(raw)) for raw in meta["authors"].split("; ")],
        venue_name=meta["venue"],
        venue_type=meta["venue-type"],
        year=int(meta["year"]),
        domain_override=meta.get("domain"),
    )
    # Each half of a section is one entry of sentences: one <paragraph>.
    paragraphs: list[str] = []
    doc_sections = []
    for header, body in sections:
        start = len(paragraphs)
        midpoint = max(1, len(body) // 2)
        paragraphs.extend(" ".join(half) for half in (body[:midpoint], body[midpoint:]) if half)
        doc_sections.append(Section(header, start, len(paragraphs)))
    references = [
        ReferenceEntry(f"r{ordinal}", entry["line"]) if entry["label"] is None
        else ReferenceEntry(str(entry["label"]), entry["line"].split("] ", 1)[1])
        for ordinal, entry in enumerate(entries, start=1)
    ]
    return serialize_document(Document(metadata, doc_sections, paragraphs, references))


def write_corpus(
    root: str | Path,
    n_docs: int,
    seed: int = 7,
    sentences: int = 50,
    refs: int = 20,
) -> Path:
    """Write a corpus under root and return the manifest path."""
    root = Path(root)
    docs_dir = root / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for index in range(n_docs):
        name, doc_format, content = synth_document(
            index, seed=seed, sentences=sentences, refs=refs
        )
        (docs_dir / name).write_text(content, encoding="utf-8")
        manifest_lines.append(f"docs/{name}\t{doc_format}")
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return manifest
