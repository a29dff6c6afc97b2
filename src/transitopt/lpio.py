"""LP-format export: a deterministic writer.

Variable names are derived from the family prefix and the tag indices, e.g.
``x_t0_r0_p1_i3_j5`` for the pattern arc of period 0, route 0, pattern 1 from
direction stop 3 to 5. Rows are named by constraint family plus indices and
written grouped by family, so identical models export byte-identically.

The text is rendered from the model's blocks in bounded slices: the
objective in slices of whole lines, each row block in slices of whole rows
of at most ``_SLICE_TERMS`` terms (a longer row alone), so the arrays that
one slice's text is joined from stay small. A slice is one array of shared
strings: a row head is the text before its last key, one string per run of
rows that share their leading keys, and the last key with its ``:``, one
string per value; a term is its coefficient's text, looked up by its value
and its position in the row, and its variable's name. Each name is one
concatenation of the same two kinds of string, made once per export.

``lp_chunks`` yields the header, the slices, then the Bounds, Binaries and
Generals sections, rendered before the variable names are released; every
chunk ends a line. ``write_lp`` joins the chunks; the CLI writes them to
``model.lp`` one at a time, so the whole text never exists as one string
there. The text is a subset of the CPLEX LP format; the test suite reads it
back with HiGHS's own LP reader and checks the row and column counts and
the optimum.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

from .model import SENSES, VAR_KEYS, MilpModel, RowBlock, VarBlock

__all__ = ["lp_chunks", "write_lp"]

_TERMS_PER_LINE = 8
# Terms rendered into one piece array: a row block is written in slices of
# whole rows of at most this many terms, or of one longer row.
_SLICE_TERMS = 2**13
_HEADER = "\\ transitopt\n"

# One str.format template per family, e.g. "x_t{}_r{}_p{}_i{}_j{}".
_NAME_FORMATS = {
    family: family + "".join(f"_{label}{{}}" for label in labels)
    for family, labels in VAR_KEYS.items()
}


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _distinct(a: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of ``a`` in ascending order, as Python numbers,
    and the index of each element's value among them."""
    ordered = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    return values.tolist(), np.searchsorted(values, a)


def _key_texts(template: str, columns: list[np.ndarray], count: int) -> tuple[Any, np.ndarray]:
    """``template`` formatted over the integer key columns as two shared
    strings per row: the text before the last field, one string per run of
    rows that share their leading keys (or one string when there are none),
    and the last field with the text after it, one string per value between
    the column's least and greatest."""
    if not columns:
        return template, np.full(count, "", dtype=object)
    *lead, last = columns
    before, after = template.rsplit("{}", 1)
    if not count:
        return before, np.empty(0, dtype=object)
    prefix: Any = before
    if lead:
        new_run = np.zeros(count, dtype=bool)
        new_run[0] = True
        for col in lead:
            new_run[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(new_run)
        texts = np.array(list(map(before.format, *(col[starts].tolist() for col in lead))),
                         dtype=object)
        prefix = np.repeat(texts, np.diff(starts, append=count))
    low = int(last.min())
    fields = np.array([f"{v}{after}" for v in range(low, int(last.max()) + 1)], dtype=object)
    return prefix, fields[last - low]


def _coefficient_texts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The texts of the distinct coefficients, variant-major (first term of
    a row, later term, later term opening a line), and each term's value
    index."""
    values, which = _distinct(vals)
    later = [f" + {_num(c)} " if c >= 0 else f" - {_num(-c)} " for c in values]
    first = [text[2:] if text.startswith(" + ") else text for text in later]
    return np.array(first + later + ["\n " + text for text in later], dtype=object), which


def _term_texts(texts: np.ndarray, which: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The coefficient text of each term from its value index and its
    position in its row: a line break before every `_TERMS_PER_LINE`-th term
    after the first."""
    variant = np.where(position == 0, 0, np.where(position % _TERMS_PER_LINE, 1, 2))
    return texts[variant * (len(texts) // 3) + which]


def _slices(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges ``[a, b)`` of whole rows, each with at most
    ``_SLICE_TERMS`` terms or a single longer row."""
    nrows = len(indptr) - 1
    if indptr[-1] <= _SLICE_TERMS:
        return [(0, nrows)] if nrows else []
    bounds = [0]
    while bounds[-1] < nrows:
        a = bounds[-1]
        b = int(np.searchsorted(indptr, indptr[a] + _SLICE_TERMS, side="right")) - 1
        bounds.append(max(b, a + 1))
    return list(zip(bounds[:-1], bounds[1:]))


def _expressions(prefix: Any, last: np.ndarray, tails: np.ndarray, indptr: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray, names: np.ndarray) -> Iterator[str]:
    """One expression per row, in slices of whole rows: its head (``prefix``
    and ``last``), its `coef name` terms with explicit signs, and its tail."""
    texts, which = _coefficient_texts(vals)
    for a, b in _slices(indptr):
        lo, hi = int(indptr[a]), int(indptr[b])
        starts = indptr[a:b] - lo
        counts = np.diff(indptr[a:b + 1])
        # row k: two head pieces, then (coefficient, name) per term, then its tail
        row_at = 3 * np.arange(b - a)
        head_at = row_at + 2 * starts
        pieces = np.empty(3 * (b - a) + 2 * (hi - lo), dtype=object)
        pieces[head_at] = prefix if isinstance(prefix, str) else prefix[a:b]
        pieces[head_at + 1] = last[a:b]
        pieces[head_at + 2 * counts + 2] = tails[a:b]
        term = np.arange(hi - lo)
        term_at = 2 * term + np.repeat(row_at + 2, counts)
        pieces[term_at] = _term_texts(texts, which[lo:hi], term - np.repeat(starts, counts))
        pieces[term_at + 1] = names[cols[lo:hi]]
        yield "".join(pieces.tolist())


def _objective_texts(ids: np.ndarray, coefs: np.ndarray, names: np.ndarray) -> Iterator[str]:
    """The objective row in slices of whole lines, each of at most
    ``_SLICE_TERMS`` terms or of one line. A slice ends its last line, so the
    next slice's first term drops the line break it opens with."""
    texts, which = _coefficient_texts(coefs)
    step = max(_SLICE_TERMS // _TERMS_PER_LINE, 1) * _TERMS_PER_LINE
    for lo in range(0, len(ids), step):
        hi = min(lo + step, len(ids))
        pieces = np.empty(2 * (hi - lo) + 2, dtype=object)
        pieces[0] = "" if lo else " obj:"
        pieces[1:-1:2] = _term_texts(texts, which[lo:hi], np.arange(lo, hi))
        pieces[2:-1:2] = names[ids[lo:hi]]
        pieces[-1] = "\n"
        if lo:
            pieces[1] = pieces[1][1:]
        yield "".join(pieces.tolist())


def _lines(names: list[str]) -> str:
    step = _TERMS_PER_LINE
    return "".join(" " + " ".join(names[k:k + step]) + "\n" for k in range(0, len(names), step))


def _row_block_texts(b: RowBlock, names: np.ndarray) -> Iterator[str]:
    template = " " + "_".join((b.family, *["{}"] * len(b.keys))) + ":"
    prefix, last = _key_texts(template, list(b.keys), len(b.rhs))
    values, which = _distinct(b.rhs)
    tails = np.array([f" {sense} {_num(v)}\n" for sense in SENSES for v in values],
                     dtype=object)[b.sense.astype(np.int64) * len(values) + which]
    return _expressions(prefix, last, tails, b.indptr, b.cols, b.vals, names)


def _closing_text(var_blocks: list[VarBlock], names: np.ndarray) -> str:
    """The Bounds, Binaries and Generals sections and the end marker."""
    out: list[str] = []
    bounds: list[str] = []
    for b in var_blocks:
        default_ub = 1.0 if b.kind == "B" else math.inf
        for k in np.flatnonzero((b.lb != 0.0) | (b.ub != default_ub)).tolist():
            nm, lb, ub = names[b.start + k], float(b.lb[k]), float(b.ub[k])
            if lb == ub:
                bounds.append(f" {nm} = {_num(lb)}\n")
            elif ub == math.inf:
                bounds.append(f" {nm} >= {_num(lb)}\n")
            else:
                bounds.append(f" {_num(lb)} <= {nm} <= {_num(ub)}\n")
    if bounds:
        out.append("Bounds\n")
        out += bounds

    for kind, section in (("B", "Binaries\n"), ("I", "Generals\n")):
        of_kind = [names[b.start:b.stop] for b in var_blocks if b.kind == kind]
        if of_kind:
            out += [section, _lines(np.concatenate(of_kind).tolist())]
    out.append("End\n")
    return "".join(out)


def lp_chunks(model: MilpModel) -> Iterator[str]:
    """The model's LP text in order: the header, the objective, each row
    block in slices, then the closing sections; every chunk ends a line. The
    variable names are released before the last chunk is yielded."""
    names = np.concatenate([prefix + last for prefix, last in (
        _key_texts(_NAME_FORMATS[b.family], list(b.keys.T), len(b.lb)) for b in model.var_blocks)])

    nonzero = model.obj_coefs != 0.0
    ids, coefs = model.obj_ids[nonzero], model.obj_coefs[nonzero]
    if not len(ids):
        ids, coefs = np.zeros(1, dtype=np.int32), np.zeros(1)
    yield _HEADER + "Minimize\n"
    yield from _objective_texts(ids, coefs, names)
    yield "Subject To\n"
    for b in model.row_blocks:
        yield from _row_block_texts(b, names)
    closing = _closing_text(model.var_blocks, names)
    del names
    yield closing


def write_lp(model: MilpModel) -> str:
    """Serialize the model as LP-format text, byte-stable across runs.

    ``str.join`` runs ``lp_chunks`` to its end, which releases the variable
    names, before it allocates the result."""
    return "".join(lp_chunks(model))
