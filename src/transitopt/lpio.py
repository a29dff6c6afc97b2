"""LP-format export: a deterministic writer.

Variable names are derived from the family prefix and the tag indices, e.g.
``x_t0_r0_p1_i3_j5`` for the pattern arc of period 0, route 0, pattern 1 from
direction stop 3 to 5. Rows are named by constraint family plus indices and
written grouped by family, so identical models export byte-identically.

The text is rendered from the model's blocks: one name template per
variable family and one row-head template per row family, formatted over the
key columns; the text of each term's coefficient is looked up by its value
and its position in the row. ``lp_chunks`` yields it in pieces: the header
and objective, one chunk per row block, then the Bounds, Binaries and
Generals sections, rendered before the variable names are released.
``write_lp`` joins the chunks; the CLI writes them to ``model.lp`` one at a
time, so the whole text never exists as one string there. The text is a
subset of the CPLEX LP format; the test suite reads it back with HiGHS's own
LP reader and checks the row and column counts and the optimum.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

from .model import SENSES, VAR_KEYS, MilpModel, RowBlock, VarBlock

__all__ = ["lp_chunks", "write_lp"]

_TERMS_PER_LINE = 8
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


def _formatted(template: str, columns: list[np.ndarray], count: int) -> list[str]:
    """``template`` formatted over the key columns, one string per row.

    The text before the last field is formatted once per run of rows that
    share their leading keys; the last field's text once per distinct value."""
    if not columns or not count:
        return [template] * count
    *lead, last = columns
    before, after = template.rsplit("{}", 1)
    prefix: Any = before
    if lead:
        keys = np.stack(lead, axis=1)
        starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
        texts = np.array(list(map(before.format, *keys[starts].T.tolist())), dtype=object)
        prefix = np.repeat(texts, np.diff(np.r_[starts, count]))
    values, which = np.unique(last, return_inverse=True)
    fields = np.array([str(v) for v in values.tolist()], dtype=object)[which.ravel()]
    return (prefix + fields + after).tolist()


def _expressions(heads: list[str], tails: np.ndarray, indptr: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, names: np.ndarray) -> str:
    """One expression per row: its head, its `coef name` terms with explicit
    signs (a line break before every `_TERMS_PER_LINE`-th term after the
    first), and its tail."""
    nrows, nnz = len(heads), len(cols)
    counts = np.diff(indptr)
    row_of = np.repeat(np.arange(nrows), counts)
    position = np.arange(nnz) - indptr[row_of]
    # coefficient texts: first term, later term, later term opening a line
    uniq, which = np.unique(vals, return_inverse=True)
    values = uniq.tolist()
    texts = np.array(
        [f" {_num(c)} " if c >= 0 else f" - {_num(-c)} " for c in values]
        + [f" + {_num(c)} " if c >= 0 else f" - {_num(-c)} " for c in values]
        + [f"\n  + {_num(c)} " if c >= 0 else f"\n  - {_num(-c)} " for c in values],
        dtype=object)
    variant = np.where(position == 0, 0, np.where(position % _TERMS_PER_LINE == 0, 2, 1))
    # row k: head, then (coefficient, name) per term, then tail
    pieces = np.empty(2 * (nrows + nnz), dtype=object)
    head_at = 2 * (indptr[:-1] + np.arange(nrows))
    pieces[head_at] = heads
    term_at = 2 * (np.arange(nnz) + row_of) + 1
    pieces[term_at] = texts[variant * len(values) + which.ravel()]
    pieces[term_at + 1] = names[cols]
    pieces[head_at + 2 * counts + 1] = tails
    return "".join(pieces.tolist())


def _lines(names: list[str]) -> str:
    step = _TERMS_PER_LINE
    return "".join(" " + " ".join(names[k:k + step]) + "\n" for k in range(0, len(names), step))


def _row_block_text(b: RowBlock, names: np.ndarray) -> str:
    template = " " + "_".join((b.family, *["{}"] * len(b.keys))) + ":"
    heads = _formatted(template, list(b.keys), len(b.rhs))
    uniq, which = np.unique(b.rhs, return_inverse=True)
    tails = np.array([f" {sense} {_num(v)}\n" for sense in SENSES for v in uniq.tolist()],
                     dtype=object)[b.sense.astype(np.int64) * len(uniq) + which.ravel()]
    return _expressions(heads, tails, b.indptr, b.cols, b.vals, names)


def _closing_text(var_blocks: list[VarBlock], name_lists: list[list[str]]) -> str:
    """The Bounds, Binaries and Generals sections and the end marker."""
    out: list[str] = []
    bounds: list[str] = []
    for b, block_names in zip(var_blocks, name_lists):
        default_ub = 1.0 if b.kind == "B" else math.inf
        for k in np.flatnonzero((b.lb != 0.0) | (b.ub != default_ub)).tolist():
            nm, lb, ub = block_names[k], float(b.lb[k]), float(b.ub[k])
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
        of_kind = [nm for b, block_names in zip(var_blocks, name_lists) if b.kind == kind
                   for nm in block_names]
        if of_kind:
            out += [section, _lines(of_kind)]
    out.append("End\n")
    return "".join(out)


def lp_chunks(model: MilpModel) -> Iterator[str]:
    """The model's LP text in order: the header, the objective, one chunk per
    row block, then the closing sections. The variable names are released
    before the last chunk is yielded."""
    name_lists = [_formatted(_NAME_FORMATS[b.family], list(b.keys.T), len(b.lb))
                  for b in model.var_blocks]
    names = np.array([nm for block in name_lists for nm in block], dtype=object)

    nonzero = model.obj_coefs != 0.0
    ids, coefs = model.obj_ids[nonzero], model.obj_coefs[nonzero]
    if not len(ids):
        ids, coefs = np.zeros(1, dtype=np.int32), np.zeros(1)
    yield _HEADER + "Minimize\n"
    yield _expressions([" obj:"], np.array(["\n"], dtype=object), np.array([0, len(ids)]),
                       ids, coefs, names)
    yield "Subject To\n"
    for b in model.row_blocks:
        yield _row_block_text(b, names)
    closing = _closing_text(model.var_blocks, name_lists)
    del names, name_lists
    yield closing


def write_lp(model: MilpModel) -> str:
    """Serialize the model as LP-format text, byte-stable across runs.

    ``str.join`` runs ``lp_chunks`` to its end, which releases the variable
    names, before it allocates the result."""
    return "".join(lp_chunks(model))
