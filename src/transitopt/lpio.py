"""LP-format export: a deterministic writer.

Variable names are derived from the family prefix and the tag indices, e.g.
``x_t0_r0_p1_i3_j5`` for the pattern arc of period 0, route 0, pattern 1 from
direction stop 3 to 5. Rows are named by constraint family plus indices and
written grouped by family, so identical models export byte-identically.

The text is a subset of the CPLEX LP format; the test suite reads it back
with HiGHS's own LP reader and checks the row and column counts and the
optimum.
"""

from __future__ import annotations

import math

from .model import MilpModel, Var

__all__ = ["variable_name", "write_lp"]

_VAR_LABELS = {
    "x": ("t", "r", "p", "i", "j"),
    "y": ("t", "r", "p", "h"),
    "cy": ("t", "r", "p", "h"),
    "z": ("t", "r", "i", "d", "c"),
    "fw": ("t", "r", "d", "i", "c"),
    "fa": ("t", "r", "d", "i", "c", "p"),
    "fl": ("t", "r", "d", "p", "i", "j"),
    "fb": ("t", "r", "j", "p"),
    "fx": ("t", "r", "d", "i", "j", "p", "c"),
    "n": ("r", "t"),
}

_TERMS_PER_LINE = 8
_HEADER = "\\ transitopt"


def variable_name(var: Var) -> str:
    labels = _VAR_LABELS[var.family]
    return var.family + "".join(f"_{lab}{val}" for lab, val in zip(labels, var.key))


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _expr_lines(terms: list[tuple[float, str]], head: str) -> list[str]:
    """Render `coef name` terms, wrapped a few per line, signs explicit."""
    lines: list[str] = []
    chunk: list[str] = [head]
    for k, (coef, name) in enumerate(terms):
        if k == 0:
            piece = f"{_num(coef)} {name}" if coef >= 0 else f"- {_num(-coef)} {name}"
        else:
            piece = f"+ {_num(coef)} {name}" if coef >= 0 else f"- {_num(-coef)} {name}"
        chunk.append(piece)
        if len(chunk) > _TERMS_PER_LINE:
            lines.append(" ".join(chunk))
            chunk = [" "]
    if len(chunk) > 1:
        lines.append(" ".join(chunk))
    return lines


def write_lp(model: MilpModel) -> str:
    """Serialize the model as LP-format text, byte-stable across runs."""
    names = [variable_name(v) for v in model.variables]
    out: list[str] = [_HEADER, "Minimize"]

    obj_terms = [(coef, names[vid]) for vid, coef in model.objective.items() if coef != 0.0]
    if not obj_terms:
        obj_terms = [(0.0, names[0])]
    out.extend(_expr_lines(obj_terms, " obj:"))

    out.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "=": "="}
    for row in model.rows:
        rname = row.family + "".join(f"_{k}" for k in row.key)
        terms = [(coef, names[vid]) for vid, coef in row.coeffs]
        lines = _expr_lines(terms, f" {rname}:")
        lines[-1] += f" {sense_txt[row.sense]} {_num(row.rhs)}"
        out.extend(lines)

    bounds: list[str] = []
    for v in model.variables:
        nm = names[v.id]
        if v.kind == "B":
            if (v.lb, v.ub) == (0.0, 1.0):
                continue
            if v.lb == v.ub:
                bounds.append(f" {nm} = {_num(v.lb)}")
            else:
                bounds.append(f" {_num(v.lb)} <= {nm} <= {_num(v.ub)}")
        else:
            if v.lb == 0.0 and v.ub == math.inf:
                continue
            if v.lb == v.ub:
                bounds.append(f" {nm} = {_num(v.lb)}")
            elif v.ub == math.inf:
                bounds.append(f" {nm} >= {_num(v.lb)}")
            else:
                bounds.append(f" {_num(v.lb)} <= {nm} <= {_num(v.ub)}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)

    binaries = [names[v.id] for v in model.variables if v.kind == "B"]
    if binaries:
        out.append("Binaries")
        for k in range(0, len(binaries), _TERMS_PER_LINE):
            out.append(" " + " ".join(binaries[k:k + _TERMS_PER_LINE]))
    generals = [names[v.id] for v in model.variables if v.kind == "I"]
    if generals:
        out.append("Generals")
        for k in range(0, len(generals), _TERMS_PER_LINE):
            out.append(" " + " ".join(generals[k:k + _TERMS_PER_LINE]))

    out.append("End")
    return "\n".join(out) + "\n"
